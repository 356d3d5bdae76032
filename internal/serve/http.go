package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Response headers carrying dedup provenance. The body is deterministic
// per key; only these headers say how the bytes were obtained.
const (
	HeaderDedup = "X-Nassim-Dedup"
	HeaderKey   = "X-Nassim-Key"
)

// MaxRequestBytes caps a POST /v1/assimilate body. A Request is a few
// hundred bytes, so the cap is ample, and it bounds what one client can
// make the decoder buffer.
const MaxRequestBytes = 64 << 10

// Handler mounts the serving API:
//
//	POST /v1/assimilate      submit a request (SSE stream with ?stream=1
//	                         or Accept: text/event-stream)
//	GET  /v1/result/{key}    fetch a completed result by key
//	GET  /v1/stats           serving counters
//	GET  /v1/manifest        daemon run manifest (with Serve block)
//	GET  /healthz            ok / 503 while draining
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/assimilate", func(w http.ResponseWriter, r *http.Request) {
		handleAssimilate(s, w, r)
	})
	mux.HandleFunc("GET /v1/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		key := r.PathValue("key")
		b, ok := s.Result(key)
		if !ok {
			http.Error(w, fmt.Sprintf("no completed result for key %s", key), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(HeaderDedup, DedupCache)
		w.Header().Set(HeaderKey, key)
		w.Write(b)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /v1/manifest", func(w http.ResponseWriter, r *http.Request) {
		m := s.Manifest()
		b, err := m.MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	})
	return mux
}

func handleAssimilate(s *Server, w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), status)
		return
	}
	stream := r.URL.Query().Get("stream") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")

	t, err := s.Start(req)
	if err != nil {
		writeAdmissionError(s, w, err)
		return
	}
	w.Header().Set(HeaderDedup, t.Dedup)
	w.Header().Set(HeaderKey, t.Key)
	if !stream {
		b, err := t.Wait(r.Context())
		if err != nil {
			status := http.StatusInternalServerError
			if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
				status = 499 // client closed request
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
		return
	}

	// SSE: replay buffered progress, stream live events, then finish
	// with a result (or error) event carrying the response document.
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	replay, live, cancel := t.Events()
	defer cancel()
	for _, ev := range replay {
		writeSSE(w, ev)
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-live:
			writeSSE(w, ev)
			flusher.Flush()
		case <-t.doneCh():
			// Drain anything still buffered, then emit the result.
			for {
				select {
				case ev := <-live:
					writeSSE(w, ev)
				default:
					b, err := t.Wait(r.Context())
					if err != nil {
						fmt.Fprintf(w, "event: error\ndata: %s\n\n", jsonString(err.Error()))
					} else {
						fmt.Fprintf(w, "event: result\ndata: %s\n\n", compactJSON(b))
					}
					flusher.Flush()
					return
				}
			}
		}
	}
}

// doneCh exposes the job completion signal for the SSE loop; cache hits
// are already complete.
func (t *Ticket) doneCh() <-chan struct{} {
	if t.job == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return t.job.done
}

func writeAdmissionError(s *Server, w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited), errors.Is(err, ErrQuota):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds()+0.5)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeSSE(w http.ResponseWriter, ev Event) {
	data, _ := json.Marshal(ev)
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
}

// compactJSON strips the newlines an indented response carries so it
// fits one SSE data line.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, b); err != nil {
		return b
	}
	return buf.Bytes()
}

func jsonString(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}
