// Command loadgen benchmarks a nassimd serving endpoint and emits a
// nassim-serve-bench/v1 document (BENCH_serve.json) for the benchdiff
// regression gate.
//
// Two phases:
//
//  1. dedup_8way — N concurrent byte-identical requests against a cold
//     key. The singleflight front must coalesce them onto exactly one
//     pipeline execution (asserted via /v1/stats and the X-Nassim-Dedup
//     headers).
//  2. warm closed-loop — a mixed vendor workload over a warm result
//     cache, measuring end-to-end latency (p50/p99/mean) and sustained
//     RPS of the zero-JSON warm path.
//
// With -addr empty, loadgen hosts the daemon in-process (its own
// listener on a loopback port), so `make bench-serve` needs no separate
// server. -check exits non-zero unless the dedup phase coalesced to one
// execution with a hit ratio >= 0.8 — the issue's acceptance criterion.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nassim/internal/serve"
	"nassim/internal/telemetry"
)

// BenchSchema identifies the serving benchmark document.
const BenchSchema = "nassim-serve-bench/v1"

// benchDoc is the emitted BENCH_serve.json layout.
type benchDoc struct {
	Schema     string  `json:"schema"`
	Requests   int     `json:"requests"`
	Errors     int     `json:"errors"`
	DurationMs float64 `json:"duration_ms"`
	RPS        float64 `json:"rps"`

	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`

	// DedupHitRatio covers the measured warm phase: the fraction of
	// requests answered without a pipeline execution.
	DedupHitRatio float64 `json:"dedup_hit_ratio"`

	Dedup8Way struct {
		Clients    int     `json:"clients"`
		Executions int64   `json:"executions"`
		HitRatio   float64 `json:"hit_ratio"`
	} `json:"dedup_8way"`

	Queue struct {
		MaxDepth int64 `json:"max_depth"`
		Shed     int64 `json:"shed"`
	} `json:"queue"`
}

func main() {
	addr := flag.String("addr", "", "nassimd address; empty hosts the daemon in-process")
	out := flag.String("out", "BENCH_serve.json", "benchmark document output path")
	manifestOut := flag.String("manifest-out", "", "also save the daemon's /v1/manifest here")
	vendors := flag.String("vendors", "Huawei,Cisco,Nokia,H3C", "comma-separated vendor cycle for the warm phase")
	scale := flag.Float64("scale", 0.02, "synthetic corpus scale")
	requests := flag.Int("requests", 400, "measured warm-phase request count")
	concurrency := flag.Int("concurrency", 8, "closed-loop client count (also the dedup fan-in)")
	check := flag.Bool("check", false, "exit non-zero unless dedup_8way coalesced to 1 execution with hit ratio >= 0.8")
	flag.Parse()

	if err := run(*addr, *out, *manifestOut, splitCSV(*vendors), *scale, *requests, *concurrency, *check); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, v := range bytes.Split([]byte(s), []byte(",")) {
		if t := string(bytes.TrimSpace(v)); t != "" {
			out = append(out, t)
		}
	}
	return out
}

func run(addr, out, manifestOut string, vendors []string, scale float64, requests, concurrency int, check bool) error {
	base, shutdown, err := connect(addr)
	if err != nil {
		return err
	}
	defer shutdown()

	doc := benchDoc{Schema: BenchSchema}

	// Phase 1: dedup fan-in against a cold key.
	st0, err := stats(base)
	if err != nil {
		return err
	}
	req1 := serve.Request{Vendors: vendors[:1], Scale: scale}
	var hits atomic.Int64
	var errs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dedup, _, err := post(base, req1)
			if err != nil {
				errs.Add(1)
				return
			}
			if dedup == serve.DedupInflight || dedup == serve.DedupCache {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	st1, err := stats(base)
	if err != nil {
		return err
	}
	doc.Dedup8Way.Clients = concurrency
	doc.Dedup8Way.Executions = st1.Executions - st0.Executions
	doc.Dedup8Way.HitRatio = float64(hits.Load()) / float64(concurrency)
	fmt.Printf("loadgen: dedup_%dway: %d executions, hit ratio %.3f\n",
		concurrency, doc.Dedup8Way.Executions, doc.Dedup8Way.HitRatio)

	// Warm every vendor in the cycle once so the measured phase exercises
	// the warm (stored-bytes) path.
	for _, v := range vendors {
		if _, _, err := post(base, serve.Request{Vendors: []string{v}, Scale: scale}); err != nil {
			return fmt.Errorf("warm-up %s: %w", v, err)
		}
	}

	// Phase 2: closed-loop mixed workload over the warm cache.
	st2, err := stats(base)
	if err != nil {
		return err
	}
	latencies := make([]float64, requests)
	var next atomic.Int64
	t0 := time.Now()
	wg = sync.WaitGroup{}
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= requests {
					return
				}
				req := serve.Request{Vendors: []string{vendors[i%len(vendors)]}, Scale: scale}
				r0 := time.Now()
				if _, _, err := post(base, req); err != nil {
					errs.Add(1)
					continue
				}
				latencies[i] = float64(time.Since(r0).Microseconds()) / 1000.0
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	st3, err := stats(base)
	if err != nil {
		return err
	}

	doc.Requests = requests
	doc.Errors = int(errs.Load())
	doc.DurationMs = float64(elapsed.Microseconds()) / 1000.0
	doc.RPS = float64(requests) / elapsed.Seconds()
	sort.Float64s(latencies)
	doc.LatencyP50Ms = percentile(latencies, 50)
	doc.LatencyP99Ms = percentile(latencies, 99)
	doc.LatencyMeanMs = mean(latencies)
	warmReqs := st3.Requests - st2.Requests
	warmExecs := st3.Executions - st2.Executions
	if warmReqs > 0 {
		doc.DedupHitRatio = float64(warmReqs-warmExecs) / float64(warmReqs)
	}
	doc.Queue.MaxDepth = st3.QueueMax
	doc.Queue.Shed = st3.Shed
	fmt.Printf("loadgen: warm phase: %d requests in %.0f ms (%.0f rps), p50 %.3f ms, p99 %.3f ms, dedup %.3f\n",
		requests, doc.DurationMs, doc.RPS, doc.LatencyP50Ms, doc.LatencyP99Ms, doc.DedupHitRatio)

	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("loadgen: wrote %s\n", out)

	if manifestOut != "" {
		mb, err := get(base + "/v1/manifest")
		if err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		if err := os.WriteFile(manifestOut, mb, 0o644); err != nil {
			return err
		}
		fmt.Printf("loadgen: wrote %s\n", manifestOut)
	}

	if check {
		if doc.Dedup8Way.Executions != 1 {
			return fmt.Errorf("check failed: dedup phase ran %d pipeline executions, want exactly 1", doc.Dedup8Way.Executions)
		}
		if doc.Dedup8Way.HitRatio < 0.8 {
			return fmt.Errorf("check failed: dedup hit ratio %.3f < 0.8", doc.Dedup8Way.HitRatio)
		}
		if doc.Errors > 0 {
			return fmt.Errorf("check failed: %d request errors", doc.Errors)
		}
		fmt.Println("loadgen: check passed (1 execution, hit ratio >= 0.8, no errors)")
	}
	return nil
}

// connect returns the base URL of the target daemon, hosting one
// in-process when addr is empty.
func connect(addr string) (string, func(), error) {
	if addr != "" {
		return "http://" + addr, func() {}, nil
	}
	s, err := serve.NewServer(serve.Config{
		Workers: 2,
		Runner:  serve.NewRunner(serve.RunnerConfig{Workers: 2}),
	})
	if err != nil {
		return "", nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: serve.Handler(s), ReadHeaderTimeout: telemetry.ReadHeaderTimeout}
	go hs.Serve(l)
	shutdown := func() {
		hs.Close()
		// Workers idle once the benchmark stops; drain promptly.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}
	return "http://" + l.Addr().String(), shutdown, nil
}

func post(base string, req serve.Request) (dedup string, body []byte, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return "", nil, err
	}
	resp, err := http.Post(base+"/v1/assimilate", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("POST status %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return resp.Header.Get(serve.HeaderDedup), body, nil
}

func stats(base string) (serve.Stats, error) {
	var st serve.Stats
	b, err := get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(b, &st)
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

func percentile(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
