package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// PoolStats reports how one bounded worker pool spent its time: the wall
// time of the pooled section and the per-worker busy time (the sum of the
// item-processing durations each worker executed). Utilization — busy time
// over workers×wall — is the number ROADMAP item 4 needs to localize the
// parse fan-out gap: a pool can be "8 workers" on paper and 1.02 workers
// busy in practice.
type PoolStats struct {
	// Workers is the number of workers the pooled section actually ran
	// (1 for the sequential path).
	Workers int `json:"workers"`
	// BusyNS is the per-worker busy time, one entry per worker.
	BusyNS []int64 `json:"busy_ns"`
	// WallNS is the wall time of the pooled section.
	WallNS int64 `json:"wall_ns"`
}

// Busy returns the summed busy time across workers.
func (ps PoolStats) Busy() time.Duration {
	var total int64
	for _, b := range ps.BusyNS {
		total += b
	}
	return time.Duration(total)
}

// Utilization returns busy/(workers*wall) in [0,1]; zero when the section
// never ran.
func (ps PoolStats) Utilization() float64 {
	if ps.Workers < 1 || ps.WallNS <= 0 {
		return 0
	}
	return float64(ps.Busy().Nanoseconds()) / (float64(ps.Workers) * float64(ps.WallNS))
}

// RunPool runs fn(w, i) once for every index i in [0, n) and returns
// each worker's busy time. It is the one bounded worker-pool loop behind
// every stage fan-out (manual pages, config files, mapper parameters,
// vendor jobs). workers is clamped to [1, n]: with one worker fn runs on
// the calling goroutine, otherwise workers goroutines drain a shared
// index channel. w identifies the worker in [0, workers) and no two calls
// with the same w overlap, so callers may keep per-worker state (e.g. a
// DOM arena) indexed by w. RunPool returns after every call has returned;
// fn reports results by writing to index i and handles cancellation by
// returning early.
func RunPool(workers, n int, fn func(w, i int)) PoolStats {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	start := time.Now()
	busy := make([]int64, workers)
	run := func(w, i int) {
		t0 := time.Now()
		fn(w, i)
		busy[w] += time.Since(t0).Nanoseconds()
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			run(0, i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					run(w, i)
				}
			}()
		}
		for i := 0; i < n; i++ {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	return PoolStats{Workers: workers, BusyNS: busy, WallNS: time.Since(start).Nanoseconds()}
}

// UtilizationKey names one pool's derived utilization figure the way
// every consumer spells it — BENCH_frontend.json's derived block, the run
// manifest's Timing.Derived, benchdiff gates: UtilizationKey("parse", 8)
// == "parse_worker_utilization_workers8". One naming function so the
// bench-side and manifest-side numbers are comparable by key.
func UtilizationKey(stage string, workers int) string {
	return stage + "_worker_utilization_workers" + strconv.Itoa(workers)
}

// UtilizationAccum folds pooled sections — benchmark iterations, or the
// vendors of one run — into a single busy-over-slot utilization. It is
// THE derivation both BENCH_frontend.json and the run manifest use;
// keeping it here means `-profile-stages` runs and bench exports can
// never disagree on the formula.
type UtilizationAccum struct {
	busyNS int64
	slotNS int64
}

// Add folds one pooled section into the accumulator.
func (u *UtilizationAccum) Add(ps PoolStats) {
	u.busyNS += ps.Busy().Nanoseconds()
	u.slotNS += int64(ps.Workers) * ps.WallNS
}

// Utilization returns the aggregated busy/(workers*wall) and whether any
// section was recorded.
func (u *UtilizationAccum) Utilization() (float64, bool) {
	if u.slotNS <= 0 {
		return 0, false
	}
	return float64(u.busyNS) / float64(u.slotNS), true
}

// ObserveWorkerBusy records each worker's busy seconds into the named
// histogram of the Default registry (one observation per worker), labelled
// with the pool's worker count so per-size utilization histograms can be
// compared (e.g. nassim_parse_worker_busy_seconds{workers="8"}).
func ObserveWorkerBusy(metric string, ps PoolStats, labels ...string) {
	kv := append(append([]string(nil), labels...), "workers", strconv.Itoa(ps.Workers))
	h := GetHistogram(metric, nil, kv...)
	for _, b := range ps.BusyNS {
		h.ObserveDuration(time.Duration(b))
	}
}

// lastRun holds the most recent run manifest for /debug/lastrun. The
// telemetry package cannot depend on obsreport (the dependency points the
// other way), so the holder is generic: any JSON-marshalable value.
var lastRun struct {
	mu sync.RWMutex
	v  any
}

// SetLastRun publishes a run report for the /debug/lastrun endpoint.
func SetLastRun(v any) {
	lastRun.mu.Lock()
	defer lastRun.mu.Unlock()
	lastRun.v = v
}

// LastRun returns the published run report, or nil.
func LastRun() any {
	lastRun.mu.RLock()
	defer lastRun.mu.RUnlock()
	return lastRun.v
}
