package main

import (
	"sort"
	"sync"
	"time"
)

// On this kind of host other tenants take CPU from the benchmark in
// bursts of a fraction of a second: /proc/stat's steal counter read every
// 250 ms under full load swings between 0 and a third of the machine.
// The benchmark therefore logs the steal counter through the run, and a
// serve phase's throughput and latency come from the requests that
// completed in its quieter 250 ms windows. The choice looks only at the
// hypervisor's steal counter, never at the program's own timings, so a
// slower program is slower in whichever windows are kept.

// stealWindow is one sampling interval and the share of the machine's
// CPU time the hypervisor stole during it.
type stealWindow struct {
	from, to time.Time
	steal    float64
}

// stealLog reads /proc/stat at a fixed interval until stopped.
type stealLog struct {
	stop chan struct{}
	wg   sync.WaitGroup

	mu      sync.Mutex
	windows []stealWindow
}

const stealEvery = 250 * time.Millisecond

func startStealLog() *stealLog {
	l := &stealLog{stop: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		tk := time.NewTicker(stealEvery)
		defer tk.Stop()
		prevT := time.Now()
		prev, err := readCPUStat()
		for {
			select {
			case <-l.stop:
				return
			case <-tk.C:
			}
			now := time.Now()
			cur, cerr := readCPUStat()
			if err == nil && cerr == nil {
				l.mu.Lock()
				l.windows = append(l.windows, stealWindow{from: prevT, to: now, steal: stealShare(prev, cur)})
				l.mu.Unlock()
			}
			prevT, prev, err = now, cur, cerr
		}
	}()
	return l
}

// close stops the log and waits for its goroutine.
func (l *stealLog) close() {
	close(l.stop)
	l.wg.Wait()
}

// between returns the windows that lie wholly inside [from, to].
func (l *stealLog) between(from, to time.Time) []stealWindow {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []stealWindow
	for _, w := range l.windows {
		if !w.from.Before(from) && !w.to.After(to) {
			out = append(out, w)
		}
	}
	return out
}

// quietWindows returns the windows whose steal is no more than the median
// window's, in time order: on a quiet host every window with no steal,
// on a busy one the quieter half.
func quietWindows(ws []stealWindow) []stealWindow {
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.steal
	}
	limit := median(steal)
	var out []stealWindow
	for _, w := range ws {
		if w.steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// inWindows selects the values whose end time falls inside one of the
// windows (in time order, non-overlapping), and returns them with the
// windows' total duration.
func inWindows(ws []stealWindow, ends []time.Time, vals []float64) ([]float64, time.Duration) {
	var total time.Duration
	for _, w := range ws {
		total += w.to.Sub(w.from)
	}
	var out []float64
	for i, e := range ends {
		j := sort.Search(len(ws), func(j int) bool { return ws[j].to.After(e) })
		if j < len(ws) && !e.Before(ws[j].from) {
			out = append(out, vals[i])
		}
	}
	return out, total
}

func meanSteal(ws []stealWindow) float64 {
	var sum float64
	for _, w := range ws {
		sum += w.steal
	}
	return ratio(sum, float64(len(ws)))
}
