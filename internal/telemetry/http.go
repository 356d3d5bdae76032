package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ExpvarName is the expvar key the Default registry publishes under.
const ExpvarName = "nassim_metrics"

// ReadHeaderTimeout bounds how long every nassim HTTP server waits for a
// request's headers, so a client that withholds or trickles them cannot
// hold a connection open forever. Idle and whole-request read timeouts
// stay unset: load generators keep idle keep-alive connections open
// between requests, and with neither set the server never closes one.
const ReadHeaderTimeout = 10 * time.Second

// NewMux returns an http.ServeMux with the operational endpoints:
//
//	/metrics        Prometheus text exposition of the Default registry
//	/debug/vars     expvar JSON (includes the registry snapshot)
//	/debug/traces   JSON dump of the span ring buffer (capacity + dropped count)
//	/debug/lastrun  manifest of the most recent assimilation run (obsreport)
//	/debug/pprof/   the standard pprof handlers
func NewMux() *http.ServeMux {
	defaultRegistry.PublishExpvar(ExpvarName)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		defaultRegistry.WriteTo(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		rec := ActiveRecorder()
		if rec == nil {
			w.Write([]byte(`{"enabled":false,"capacity":0,"dropped":0,"spans":[]}` + "\n"))
			return
		}
		rec.DumpJSON(w)
	})
	mux.HandleFunc("/debug/lastrun", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		v := LastRun()
		if v == nil {
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":"no run recorded yet"}` + "\n"))
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry HTTP server.
type Server struct {
	srv *http.Server
	l   net.Listener
}

// Serve starts the telemetry endpoints on addr (":0" picks a free port)
// and returns immediately; the server runs until Close.
func Serve(addr string) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{srv: &http.Server{Handler: NewMux(), ReadHeaderTimeout: ReadHeaderTimeout}, l: l}
	go s.srv.Serve(l)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
