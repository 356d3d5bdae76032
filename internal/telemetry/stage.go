package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"nassim/internal/benchdiff"
)

// Pipeline stage names shared by cmd/evalbench's stage table, the
// BENCH_telemetry.json export and bench_test.go's telemetry-aware
// benchmarks. Keeping them here gives every stage row of the BENCH_*.json
// documents a stable name.
const (
	StageParse         = "parse"
	StageSyntaxCGM     = "syntax_cgm"
	StageHierarchy     = "hierarchy"
	StageCorrect       = "correct_rebuild"
	StageEmpirical     = "empirical"
	StageLiveTest      = "live_test"
	StageMapToUDM      = "map_to_udm"
	StageMapRecommend  = "mapper_recommend"
	StageMapFineTune   = "mapper_finetune"
	StageControllerInt = "controller_intent"
)

// StageTimer accumulates wall time per named pipeline stage.
type StageTimer struct {
	mu    sync.Mutex
	order []string
	stats map[string]*stageStat
}

type stageStat struct {
	calls int
	total time.Duration
}

// NewStageTimer returns an empty stage timer.
func NewStageTimer() *StageTimer { return &StageTimer{stats: map[string]*stageStat{}} }

// Observe adds one timed call of a stage.
func (st *StageTimer) Observe(stage string, d time.Duration) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.stats[stage]
	if !ok {
		s = &stageStat{}
		st.stats[stage] = s
		st.order = append(st.order, stage)
	}
	s.calls++
	s.total += d
}

// Time runs f and records its wall time under stage.
func (st *StageTimer) Time(stage string, f func()) {
	start := time.Now()
	f()
	st.Observe(stage, time.Since(start))
}

// Start begins timing a stage; the returned stop function records it.
func (st *StageTimer) Start(stage string) func() {
	start := time.Now()
	return func() { st.Observe(stage, time.Since(start)) }
}

// StageRecord is one stage's accumulated timing, in the stable export
// schema.
type StageRecord struct {
	Name    string `json:"name"`
	Calls   int    `json:"calls"`
	TotalNS int64  `json:"total_ns"`
	AvgNS   int64  `json:"avg_ns"`
}

// Records returns per-stage records in first-observation order.
func (st *StageTimer) Records() []StageRecord {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]StageRecord, 0, len(st.order))
	for _, name := range st.order {
		s := st.stats[name]
		rec := StageRecord{Name: name, Calls: s.calls, TotalNS: s.total.Nanoseconds()}
		if s.calls > 0 {
			rec.AvgNS = rec.TotalNS / int64(s.calls)
		}
		out = append(out, rec)
	}
	return out
}

// Total returns the summed wall time across all stages.
func (st *StageTimer) Total() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	var total time.Duration
	for _, s := range st.stats {
		total += s.total
	}
	return total
}

// Table renders the per-stage timing table for terminal output.
func (st *StageTimer) Table() string {
	recs := st.Records()
	var total int64
	for _, r := range recs {
		total += r.TotalNS
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %7s %14s %14s %7s\n", "stage", "calls", "total", "avg", "share")
	for _, r := range recs {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.TotalNS) / float64(total)
		}
		fmt.Fprintf(&b, "%-20s %7d %14s %14s %6.1f%%\n",
			r.Name, r.Calls,
			time.Duration(r.TotalNS).Round(time.Microsecond),
			time.Duration(r.AvgNS).Round(time.Microsecond), share)
	}
	fmt.Fprintf(&b, "%-20s %7s %14s\n", "total", "", time.Duration(total).Round(time.Microsecond))
	return b.String()
}

// BenchRows renders the per-stage records as benchdiff rows:
// stage.<name>.avg_ns and stage.<name>.calls. Stage tables come from one
// pipeline run, not b.N iterations, so the timing rows gate at the
// single-shot tolerance above the single-shot noise floor.
func (st *StageTimer) BenchRows() []benchdiff.Row {
	var rows []benchdiff.Row
	for _, r := range st.Records() {
		rows = append(rows,
			benchdiff.Row{Name: "stage." + r.Name + ".avg_ns", Unit: "ns", Better: benchdiff.Lower,
				Value: float64(r.AvgNS), Tol: benchdiff.SingleShotTolerance, Floor: benchdiff.SingleShotFloorNS},
			benchdiff.Row{Name: "stage." + r.Name + ".calls", Unit: "count", Better: benchdiff.Info,
				Value: float64(r.Calls)})
	}
	return rows
}
