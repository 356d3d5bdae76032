// Command loadgen benchmarks a nassimd serving endpoint and emits
// BENCH_serve.json, a nassim-bench/v2 row list, for the benchdiff
// regression gate.
//
// Two phases:
//
//  1. dedup_8way — N concurrent byte-identical requests against a cold
//     key. The singleflight front must coalesce them onto exactly one
//     pipeline execution (asserted via /v1/stats and the X-Nassim-Dedup
//     headers).
//  2. warm closed-loop — a mixed vendor workload over a warm result
//     cache, measuring end-to-end latency (p50/p99/mean over the
//     successful requests) and sustained RPS of the zero-JSON warm path.
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

	"nassim/internal/benchdiff"
	"nassim/internal/serve"
	"nassim/internal/telemetry"
)

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
	dedupExecs := st1.Executions - st0.Executions
	dedupHitRatio := float64(hits.Load()) / float64(concurrency)
	fmt.Printf("loadgen: dedup_%dway: %d executions, hit ratio %.3f\n",
		concurrency, dedupExecs, dedupHitRatio)

	// Warm every vendor in the cycle once so the measured phase exercises
	// the warm (stored-bytes) path.
	for _, v := range vendors {
		if _, _, err := post(base, serve.Request{Vendors: []string{v}, Scale: scale}); err != nil {
			return fmt.Errorf("warm-up %s: %w", v, err)
		}
	}

	// Phase 2: closed-loop mixed workload over the warm cache. Each client
	// keeps the latencies of its successful requests; a failed request is
	// counted as an error, not as a sample.
	st2, err := stats(base)
	if err != nil {
		return err
	}
	samples := make([][]float64, concurrency)
	var next atomic.Int64
	t0 := time.Now()
	for c := range samples {
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
				samples[c] = append(samples[c], float64(time.Since(r0).Microseconds())/1000.0)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	st3, err := stats(base)
	if err != nil {
		return err
	}

	var latencies []float64
	for _, s := range samples {
		latencies = append(latencies, s...)
	}
	sort.Float64s(latencies)
	nErrs := errs.Load()
	durationMs := float64(elapsed.Microseconds()) / 1000.0
	rps := float64(requests) / elapsed.Seconds()
	p50, p99 := percentile(latencies, 50), percentile(latencies, 99)
	var warmHitRatio float64
	if warmReqs := st3.Requests - st2.Requests; warmReqs > 0 {
		warmHitRatio = float64(warmReqs-(st3.Executions-st2.Executions)) / float64(warmReqs)
	}
	fmt.Printf("loadgen: warm phase: %d requests in %.0f ms (%.0f rps), p50 %.3f ms, p99 %.3f ms, dedup %.3f\n",
		requests, durationMs, rps, p50, p99, warmHitRatio)

	// Serving latency is measured per request but over a short warm loop
	// on a shared runner, so it gates like a single-shot timing with a
	// millisecond floor.
	timing := func(name string, v float64) benchdiff.Row {
		return benchdiff.Row{Name: name, Unit: "ms", Better: benchdiff.Lower, Value: v,
			Tol: benchdiff.SingleShotTolerance, Floor: benchdiff.SingleShotFloorMs}
	}
	info := func(name, unit string, v float64) benchdiff.Row {
		return benchdiff.Row{Name: name, Unit: unit, Better: benchdiff.Info, Value: v}
	}
	rows := []benchdiff.Row{
		timing("latency_p50_ms", p50),
		timing("latency_p99_ms", p99),
		timing("latency_mean_ms", mean(latencies)),
		{Name: "rps", Unit: "req/s", Better: benchdiff.Higher, Value: rps, Tol: benchdiff.SpeedupTolerance},
		// The dedup economy is the serving layer's core invariant: the
		// warm phase (dedup_hit_ratio: the fraction of requests answered
		// without a pipeline execution) must stay near-fully deduplicated
		// and the 8-way fan-in must coalesce to one execution. These are
		// deterministic, not timing-noisy.
		{Name: "dedup_hit_ratio", Unit: "ratio", Better: benchdiff.Higher, Value: warmHitRatio},
		{Name: "dedup_8way.hit_ratio", Unit: "ratio", Better: benchdiff.Higher, Value: dedupHitRatio},
		{Name: "dedup_8way.executions", Unit: "count", Better: benchdiff.Lower, Value: float64(dedupExecs)},
		// Queue pressure under the bench workload: a depth or shed growth
		// means admission started backing up. A small absolute floor keeps
		// the empty-queue baseline from tripping on a 0 -> 1 blip.
		{Name: "queue.max_depth", Unit: "count", Better: benchdiff.Lower, Value: float64(st3.QueueMax), Floor: 8},
		{Name: "queue.shed", Unit: "count", Better: benchdiff.Lower, Value: float64(st3.Shed), Floor: 8},
		{Name: "errors", Unit: "count", Better: benchdiff.Lower, Value: float64(nErrs)},
		info("requests", "count", float64(requests)),
		info("dedup_8way.clients", "count", float64(concurrency)),
		info("duration_ms", "ms", durationMs),
	}
	if err := benchdiff.WriteFile(out, rows); err != nil {
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
		if dedupExecs != 1 {
			return fmt.Errorf("check failed: dedup phase ran %d pipeline executions, want exactly 1", dedupExecs)
		}
		if dedupHitRatio < 0.8 {
			return fmt.Errorf("check failed: dedup hit ratio %.3f < 0.8", dedupHitRatio)
		}
		if nErrs > 0 {
			return fmt.Errorf("check failed: %d request errors", nErrs)
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
