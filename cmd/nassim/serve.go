package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nassim/internal/serve"
	"nassim/internal/telemetry"
)

// cmdServe runs nassimd: the long-lived assimilation daemon. One
// process serves the JSON API (singleflight dedup, bounded queue,
// per-tenant admission control, SSE progress) plus the full telemetry
// surface, sharing a single artifact cache across every request.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address (\":0\" picks a port)")
	workers := fs.Int("serve-workers", 2, "job worker pool size")
	queueDepth := fs.Int("queue-depth", 16, "job queue depth behind the worker pool")
	pipelineWorkers := fs.Int("workers", 2, "per-request pipeline vendor parallelism")
	ratePerSec := fs.Float64("rate-per-sec", 0, "per-tenant request rate limit (0 = unlimited)")
	burst := fs.Int("burst", 4, "per-tenant rate-limit burst")
	maxInflight := fs.Int("max-inflight", 0, "per-tenant in-flight job quota (0 = unlimited)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint for shed requests")
	cacheDir := fs.String("cache-dir", "", "mirror expensive artifacts on disk under this directory")
	fs.Parse(args)

	s, err := serve.NewServer(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		RatePerSec:  *ratePerSec,
		Burst:       *burst,
		MaxInflight: *maxInflight,
		RetryAfter:  *retryAfter,
		Runner: serve.NewRunner(serve.RunnerConfig{
			Workers:  *pipelineWorkers,
			CacheDir: *cacheDir,
		}),
	})
	if err != nil {
		return err
	}

	// One mux, two surfaces: the serving API plus the standard telemetry
	// endpoints (/metrics, /debug/vars, /debug/traces, /debug/pprof/).
	mux := http.NewServeMux()
	api := serve.Handler(s)
	mux.Handle("/v1/", api)
	mux.Handle("/healthz", api)
	tmux := telemetry.NewMux()
	mux.Handle("/metrics", tmux)
	mux.Handle("/debug/", tmux)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: mux, ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(l) }()
	fmt.Printf("nassimd: serving /v1/assimilate on http://%s (workers %d, queue %d; Ctrl-C to drain)\n",
		l.Addr(), *workers, *queueDepth)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case <-sigCh:
	}

	// Graceful drain: stop admitting (new submits see 503), let queued
	// and running jobs finish, then close the HTTP listener.
	fmt.Println("nassimd: draining (in-flight jobs finish, new requests get 503)")
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	st := s.Stats()
	fmt.Printf("nassimd: drained — %d requests, %d executions, dedup hit ratio %.2f, %d shed\n",
		st.Requests, st.Executions, st.DedupHitRatio(), st.Shed)
	return httpSrv.Shutdown(ctx)
}

// cmdClient is the thin client: build a request from flags, POST it to
// a running nassimd, surface the dedup provenance headers, and print or
// save the result.
func cmdClient(args []string) error {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "nassimd address (host:port)")
	vendors := fs.String("vendors", "", "comma-separated vendor list (empty = all built-in vendors)")
	scale := fs.Float64("scale", 0.1, "synthetic corpus scale")
	validate := fs.Bool("validate", false, "run empirical configuration validation")
	live := fs.Bool("live", false, "run live-device testing")
	seed := fs.Uint64("seed", 0, "live-test instantiation seed")
	tenant := fs.String("tenant", "", "tenant identity for admission control")
	stream := fs.Bool("stream", false, "stream per-stage progress events (SSE)")
	out := fs.String("out", "", "write the result document to this file instead of stdout")
	timeout := fs.Duration("timeout", 10*time.Minute, "request timeout")
	fs.Parse(args)

	req := serve.Request{
		Scale:    *scale,
		Validate: *validate,
		LiveTest: *live,
		Seed:     *seed,
		Tenant:   *tenant,
	}
	if *vendors != "" {
		for _, v := range strings.Split(*vendors, ",") {
			if v = strings.TrimSpace(v); v != "" {
				req.Vendors = append(req.Vendors, v)
			}
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}

	url := fmt.Sprintf("http://%s/v1/assimilate", *addr)
	if *stream {
		url += "?stream=1"
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return fmt.Errorf("client: %s (retry after %ss): %s", resp.Status, ra, strings.TrimSpace(string(msg)))
		}
		return fmt.Errorf("client: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	fmt.Fprintf(os.Stderr, "client: key %s dedup %s\n",
		resp.Header.Get(serve.HeaderKey), resp.Header.Get(serve.HeaderDedup))

	if *stream {
		return streamEvents(resp.Body, *out)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	return writeResult(data, *out)
}

// streamEvents relays SSE progress lines to stderr and captures the
// final result event's document.
func streamEvents(r io.Reader, out string) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "result":
				return writeResult([]byte(data+"\n"), out)
			case "error":
				return fmt.Errorf("client: server error: %s", data)
			default:
				fmt.Fprintf(os.Stderr, "client: %s %s\n", event, data)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("client: stream ended without a result event")
}

func writeResult(data []byte, out string) error {
	if out == "" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "client: wrote %d bytes to %s\n", len(data), out)
	return nil
}
