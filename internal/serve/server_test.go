package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingRunner counts executions and blocks until release is closed
// (a nil release returns immediately).
func countingRunner(execs *atomic.Int64, release <-chan struct{}) Runner {
	return func(ctx context.Context, req Request, observe StageObserver) ([]byte, error) {
		execs.Add(1)
		if observe != nil {
			done := observe(req.Vendors[0], "parse")
			if done != nil {
				done()
			}
		}
		if release != nil {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return []byte("result:" + req.Key() + "\n"), nil
	}
}

// waitNoLeak polls until the goroutine count returns to the baseline.
func waitNoLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}

// TestConcurrentDedupExactlyOnce is the singleflight acceptance
// criterion: N concurrent identical requests execute the pipeline
// exactly once — one miss, N-1 in-flight attachments — and all N
// receive byte-identical results.
func TestConcurrentDedupExactlyOnce(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	s, err := NewServer(Config{Workers: 4, Runner: countingRunner(&execs, release)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	const n = 8
	req := Request{Vendors: []string{"Huawei"}, Scale: 0.02}
	results := make([][]byte, n)
	dedups := make([]string, n)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := s.Start(req)
			started.Done()
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			dedups[i] = tk.Dedup
			b, err := tk.Wait(context.Background())
			if err != nil {
				t.Errorf("request %d: wait: %v", i, err)
				return
			}
			results[i] = b
		}(i)
	}
	// Every request is admitted (attached or queued) before the runner
	// is released, so all eight target one in-flight job.
	started.Wait()
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for %d identical requests; want exactly 1", got, n)
	}
	miss, inflight := 0, 0
	for i, d := range dedups {
		switch d {
		case DedupMiss:
			miss++
		case DedupInflight:
			inflight++
		default:
			t.Errorf("request %d: unexpected dedup %q", i, d)
		}
		if string(results[i]) != string(results[0]) {
			t.Errorf("request %d result differs from request 0", i)
		}
	}
	if miss != 1 || inflight != n-1 {
		t.Errorf("dedup split miss=%d inflight=%d; want 1/%d", miss, inflight, n-1)
	}
	st := s.Stats()
	if st.Executions != 1 || st.Requests != n {
		t.Errorf("stats: executions=%d requests=%d; want 1/%d", st.Executions, st.Requests, n)
	}
	if ratio := st.DedupHitRatio(); ratio < float64(n-1)/float64(n) {
		t.Errorf("dedup hit ratio %.3f; want >= %.3f", ratio, float64(n-1)/float64(n))
	}

	// A later identical request is a warm cache hit served without a
	// worker round-trip.
	b, dedup, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if dedup != DedupCache {
		t.Errorf("post-completion dedup %q; want %q", dedup, DedupCache)
	}
	if string(b) != string(results[0]) {
		t.Error("cached result differs from executed result")
	}
}

// TestShutdownDrainsInflight pins graceful shutdown: in-flight jobs
// finish and their waiters get results, new submissions fail with
// ErrDraining (503), and the worker pool leaves no goroutines behind.
func TestShutdownDrainsInflight(t *testing.T) {
	before := runtime.NumGoroutine()
	var execs atomic.Int64
	release := make(chan struct{})
	s, err := NewServer(Config{Workers: 2, Runner: countingRunner(&execs, release)})
	if err != nil {
		t.Fatal(err)
	}

	tk, err := s.Start(Request{Vendors: []string{"Huawei"}})
	if err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		shutdownDone <- s.Shutdown(context.Background())
	}()
	// Draining becomes visible before the blocked job completes.
	deadline := time.Now().Add(2 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Start(Request{Vendors: []string{"Nokia"}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: err=%v; want ErrDraining", err)
	}

	close(release)
	b, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if len(b) == 0 {
		t.Error("in-flight request drained with empty result")
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("executions=%d; want 1", got)
	}
	waitNoLeak(t, before)
}

// TestQueueFullSheds pins admission control: with one busy worker and a
// one-deep queue, a third distinct request is shed with ErrQueueFull.
func TestQueueFullSheds(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	s, err := NewServer(Config{Workers: 1, QueueDepth: 1, Runner: countingRunner(&execs, release)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	defer close(release) // LIFO: unblock the runner before Shutdown waits

	// First request occupies the worker; wait until it is dequeued so
	// the second lands in the queue deterministically.
	if _, err := s.Start(Request{Vendors: []string{"Huawei"}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for execs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up first job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Start(Request{Vendors: []string{"Nokia"}}); err != nil {
		t.Fatal(err)
	}
	_, err = s.Start(Request{Vendors: []string{"H3C"}})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third distinct request: err=%v; want ErrQueueFull", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Errorf("shed=%d; want 1", st.Shed)
	}

	// An identical request still attaches in-flight — dedup is checked
	// before the queue, so coalescing never costs a slot.
	tk, err := s.Start(Request{Vendors: []string{"Nokia"}})
	if err != nil {
		t.Fatalf("identical request shed instead of attached: %v", err)
	}
	if tk.Dedup != DedupInflight {
		t.Errorf("identical request dedup %q; want %q", tk.Dedup, DedupInflight)
	}
}

// TestTenantRateLimit pins the per-tenant token bucket: with a burst of
// 2 and a negligible refill rate, a tenant's third immediate request is
// rejected while another tenant is unaffected.
func TestTenantRateLimit(t *testing.T) {
	var execs atomic.Int64
	s, err := NewServer(Config{
		Workers: 2, RatePerSec: 0.001, Burst: 2,
		Runner: countingRunner(&execs, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	for i := 0; i < 2; i++ {
		req := Request{Vendors: []string{"Huawei"}, Scale: 0.01 * float64(i+1), Tenant: "a"}
		if _, _, err := s.Submit(context.Background(), req); err != nil {
			t.Fatalf("tenant a request %d: %v", i, err)
		}
	}
	_, _, err = s.Submit(context.Background(), Request{Vendors: []string{"Nokia"}, Tenant: "a"})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("tenant a third request: err=%v; want ErrRateLimited", err)
	}
	if _, _, err := s.Submit(context.Background(), Request{Vendors: []string{"Nokia"}, Tenant: "b"}); err != nil {
		t.Fatalf("tenant b blocked by tenant a's bucket: %v", err)
	}
}

// TestTenantInflightQuota pins the per-tenant in-flight cap.
func TestTenantInflightQuota(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	s, err := NewServer(Config{
		Workers: 1, QueueDepth: 8, MaxInflight: 2,
		Runner: countingRunner(&execs, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	defer close(release) // LIFO: unblock the runner before Shutdown waits

	for i := 0; i < 2; i++ {
		req := Request{Vendors: []string{"Huawei"}, Scale: 0.01 * float64(i+1), Tenant: "a"}
		if _, err := s.Start(req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	_, err = s.Start(Request{Vendors: []string{"Nokia"}, Tenant: "a"})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota request: err=%v; want ErrQuota", err)
	}
}

// TestEventStreamReplays pins the progress stream: a late subscriber
// replays queued/started/stage events it missed, and the job's
// completion is always observable via the done channel even if live
// events were dropped.
func TestEventStreamReplays(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	s, err := NewServer(Config{Workers: 1, Runner: countingRunner(&execs, release)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	tk, err := s.Start(Request{Vendors: []string{"Huawei"}})
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker reach the blocking point so queued/started/stage
	// events are already buffered when we subscribe.
	deadline := time.Now().Add(2 * time.Second)
	for execs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	replay, live, cancel := tk.Events()
	defer cancel()
	types := map[string]bool{}
	for _, ev := range replay {
		types[ev.Type] = true
	}
	for _, want := range []string{"queued", "started", "stage", "stage_done"} {
		if !types[want] {
			t.Errorf("replay missing %q event (got %v)", want, replay)
		}
	}
	close(release)
	select {
	case <-tk.doneCh():
	case <-time.After(5 * time.Second):
		t.Fatal("job never completed")
	}
	// The final done event arrives on the live channel or is implied by
	// doneCh; drain what's there.
	for done := false; !done; {
		select {
		case ev := <-live:
			types[ev.Type] = true
		default:
			done = true
		}
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestFailedJobsNotCached pins that failures never enter the result
// cache: the next identical request re-executes.
func TestFailedJobsNotCached(t *testing.T) {
	var execs atomic.Int64
	failFirst := true
	var mu sync.Mutex
	s, err := NewServer(Config{Workers: 1, Runner: func(ctx context.Context, req Request, observe StageObserver) ([]byte, error) {
		execs.Add(1)
		mu.Lock()
		defer mu.Unlock()
		if failFirst {
			failFirst = false
			return nil, fmt.Errorf("transient failure")
		}
		return []byte("ok\n"), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	req := Request{Vendors: []string{"Huawei"}}
	if _, _, err := s.Submit(context.Background(), req); err == nil {
		t.Fatal("first submit succeeded; want transient failure")
	}
	b, dedup, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if dedup != DedupMiss {
		t.Errorf("retry dedup %q; want %q (failures must not be cached)", dedup, DedupMiss)
	}
	if string(b) != "ok\n" {
		t.Errorf("retry result %q", b)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("executions=%d; want 2", got)
	}
}

// TestRequestKeyNormalization pins that equivalent requests coalesce:
// explicit defaults, the empty vendor list, and tenant identity all map
// to the same key, while real parameter changes do not.
func TestRequestKeyNormalization(t *testing.T) {
	base := Request{}.Key()
	if got := (Request{Vendors: nil, Scale: 0.1}).Key(); got != base {
		t.Error("explicit default scale changed the key")
	}
	if got := (Request{Tenant: "a"}).Key(); got != base {
		t.Error("tenant entered the key; dedup must be tenant-blind")
	}
	if got := (Request{Scale: 0.05}).Key(); got == base {
		t.Error("scale change did not change the key")
	}
	if got := (Request{Validate: true}).Key(); got == base {
		t.Error("validate change did not change the key")
	}
	if got := (Request{Vendors: []string{"Huawei"}}).Key(); got == base {
		t.Error("vendor change did not change the key")
	}
	if got := (Request{Seed: 7}).Key(); got == base {
		t.Error("seed change did not change the key")
	}
	if len(base) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", base)
	}
	if _, err := strconv.ParseUint(base[:16], 16, 64); err != nil {
		t.Errorf("key %q is not hex: %v", base, err)
	}
}

// TestRequestCheck pins pre-queue validation.
func TestRequestCheck(t *testing.T) {
	if err := (Request{Vendors: []string{"NoSuchVendor"}}).Check(); err == nil {
		t.Error("unknown vendor passed Check")
	}
	for _, scale := range []float64{2.0, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := (Request{Scale: scale}).Check(); err == nil {
			t.Errorf("scale %v passed Check", scale)
		}
	}
	if err := (Request{Vendors: []string{"Juniper"}, Scale: 0.02}).Check(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
}
