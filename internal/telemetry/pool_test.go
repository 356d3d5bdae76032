package telemetry

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's ID, parsed from its stack header
// ("goroutine N [running]:").
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunPool checks the pool contract at 1, 2 and 8 workers, with more
// workers than items, and with no items: every index runs exactly once,
// results land by index, w stays in [0, workers) with no two calls of one
// worker overlapping, and PoolStats carries one busy entry per worker.
func TestRunPool(t *testing.T) {
	for _, tc := range []struct{ workers, n, want int }{
		{1, 100, 1}, {2, 100, 2}, {8, 100, 8},
		{8, 3, 3}, {0, 5, 1}, {-2, 5, 1}, {4, 0, 1},
	} {
		t.Run(fmt.Sprintf("workers%d/n%d", tc.workers, tc.n), func(t *testing.T) {
			calls := make([]atomic.Int32, tc.n)
			busy := make([]atomic.Int32, tc.want)
			out := make([]int, tc.n)
			var badW, overlap atomic.Int32
			ps := RunPool(tc.workers, tc.n, func(w, i int) {
				if w < 0 || w >= tc.want {
					badW.Add(1)
					return
				}
				if busy[w].Add(1) != 1 {
					overlap.Add(1)
				}
				calls[i].Add(1)
				out[i] = i * i
				busy[w].Add(-1)
			})
			if n := badW.Load(); n > 0 {
				t.Fatalf("%d call(s) with w outside [0,%d)", n, tc.want)
			}
			if n := overlap.Load(); n > 0 {
				t.Errorf("%d overlapping call(s) on one worker", n)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times", i, c)
				}
				if out[i] != i*i {
					t.Errorf("out[%d] = %d, want %d", i, out[i], i*i)
				}
			}
			if ps.Workers != tc.want || len(ps.BusyNS) != tc.want {
				t.Errorf("stats: workers=%d busy entries=%d, want %d", ps.Workers, len(ps.BusyNS), tc.want)
			}
			if ps.WallNS <= 0 {
				t.Errorf("wall = %d ns", ps.WallNS)
			}
		})
	}
}

// TestRunPoolOneWorkerRunsOnCaller pins the sequential case: one worker
// runs fn on the calling goroutine, in index order; more workers never
// do.
func TestRunPoolOneWorkerRunsOnCaller(t *testing.T) {
	caller := goid()
	next := 0
	RunPool(1, 10, func(w, i int) {
		if id := goid(); id != caller {
			t.Errorf("index %d ran on goroutine %d, want caller %d", i, id, caller)
		}
		if i != next {
			t.Errorf("index %d ran out of order (want %d)", i, next)
		}
		next++
	})
	var onCaller atomic.Int32
	RunPool(2, 10, func(_, _ int) {
		if goid() == caller {
			onCaller.Add(1)
		}
	})
	if n := onCaller.Load(); n > 0 {
		t.Errorf("2-worker pool ran %d call(s) on the caller", n)
	}
}
