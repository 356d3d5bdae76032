package nassim_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nassim/internal/benchdiff"
)

// TestCommittedBaselines checks the BENCH_*.json baselines `make
// benchdiff` gates against: exactly the seven suites, each a valid
// nassim-bench/v2 row list that compares against itself clean, and each
// suite's rows carrying the gate its emitter declares.
func TestCommittedBaselines(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 7 {
		t.Fatalf("baselines = %v, want the seven suites", files)
	}
	for _, f := range files {
		suite := strings.TrimSuffix(strings.TrimPrefix(f, "BENCH_"), ".json")
		t.Run(suite, func(t *testing.T) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := benchdiff.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := benchdiff.Compare(data, data)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed() || len(res.AddedCurrent) > 0 || len(res.Deltas) != len(rows) {
				t.Fatalf("self-compare not clean:\n%s", res.Table())
			}
			byName := map[string]benchdiff.Row{}
			for _, r := range rows {
				byName[r.Name] = r
			}
			if pin := baselineGates[suite]; pin != nil {
				pin(t, byName)
			}
		})
	}
}

// wantGate pins one row's direction, tolerance and floor.
func wantGate(t *testing.T, rows map[string]benchdiff.Row, name, better string, tol, floor float64) {
	t.Helper()
	r, ok := rows[name]
	if !ok {
		t.Errorf("row %s missing", name)
		return
	}
	if r.Better != better || r.Tol != tol || r.Floor != floor {
		t.Errorf("row %s gates %s tol %v floor %v; want %s tol %v floor %v",
			name, r.Better, r.Tol, r.Floor, better, tol, floor)
	}
}

// wantGates applies wantGate to every row the predicate selects; it
// fails when the predicate selects none.
func wantGates(t *testing.T, rows map[string]benchdiff.Row, what string, sel func(string) bool,
	better string, tol, floor float64) {
	t.Helper()
	n := 0
	for name := range rows {
		if sel(name) {
			wantGate(t, rows, name, better, tol, floor)
			n++
		}
	}
	if n == 0 {
		t.Errorf("no %s rows", what)
	}
}

// baselineGates pins, per suite, the gate policy of its rows.
var baselineGates = map[string]func(*testing.T, map[string]benchdiff.Row){
	// Any unreachable device is a robustness regression, a cache-hit
	// collapse means revalidation stopped being incremental, and cycle
	// timings are single-shot with a millisecond floor.
	"reconcile": func(t *testing.T, rows map[string]benchdiff.Row) {
		wantGate(t, rows, "health.unreachable", benchdiff.Lower, 0, 0)
		wantGate(t, rows, "cache_hit_ratio", benchdiff.Higher, 0, 0)
		wantGate(t, rows, "cycle_p50_ms", benchdiff.Lower, 1, 25)
	},
	// The singleflight invariant gates on its own, whatever the timings
	// say; the queue rows carry an absolute floor; throughput takes the
	// speedup gate.
	"serve": func(t *testing.T, rows map[string]benchdiff.Row) {
		wantGate(t, rows, "errors", benchdiff.Lower, 0, 0)
		wantGate(t, rows, "dedup_8way.executions", benchdiff.Lower, 0, 0)
		wantGate(t, rows, "dedup_hit_ratio", benchdiff.Higher, 0, 0)
		wantGate(t, rows, "dedup_8way.hit_ratio", benchdiff.Higher, 0, 0)
		wantGate(t, rows, "queue.max_depth", benchdiff.Lower, 0, 8)
		wantGate(t, rows, "queue.shed", benchdiff.Lower, 0, 8)
		wantGate(t, rows, "rps", benchdiff.Higher, 0.5, 0)
	},
	// Derived speedups take the wide speedup gate; derived timings gate
	// lower like any other timing, although they share the derived prefix
	// with the higher-better ratios.
	"frontend": func(t *testing.T, rows map[string]benchdiff.Row) {
		wantGates(t, rows, "speedup", func(n string) bool { return strings.Contains(n, "speedup") },
			benchdiff.Higher, 0.5, 0)
		wantGates(t, rows, "derived timing", func(n string) bool {
			return strings.HasPrefix(n, "derived.") && (strings.HasSuffix(n, "_ns") || strings.Contains(n, "_ns_per_"))
		}, benchdiff.Lower, 0, 0)
		wantGates(t, rows, "utilization", func(n string) bool { return strings.Contains(n, "_utilization_") },
			benchdiff.Higher, 0, 0)
	},
	// A registry duration's sum or average gates as a single-shot timing;
	// every other registry sample is informational.
	"telemetry": func(t *testing.T, rows map[string]benchdiff.Row) {
		timing := func(n string) bool {
			base, _, _ := strings.Cut(n, "{")
			return strings.HasPrefix(n, "metric.") && strings.Contains(base, "_seconds") &&
				(strings.HasSuffix(base, "_sum") || strings.HasSuffix(base, "_avg"))
		}
		wantGates(t, rows, "registry duration", timing, benchdiff.Lower, 1, 0.025)
		wantGates(t, rows, "registry sample", func(n string) bool {
			return strings.HasPrefix(n, "metric.") && !timing(n)
		}, benchdiff.Info, 0, 0)
	},
	// The run's wall time and every stage average come from one run.
	"pipeline": func(t *testing.T, rows map[string]benchdiff.Row) {
		wantGates(t, rows, "single-shot timing", func(n string) bool {
			return n == "wall_ns" || strings.HasPrefix(n, "stage.") && strings.HasSuffix(n, ".avg_ns")
		}, benchdiff.Lower, 1, 25e6)
	},
}
