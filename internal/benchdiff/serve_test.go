package benchdiff

import (
	"os"
	"testing"
)

// serveBaseline reads the committed serve baseline, the row list `make
// benchdiff` gates cmd/loadgen's output against.
func serveBaseline(t *testing.T) []Row {
	t.Helper()
	data, err := os.ReadFile("../../BENCH_serve.json")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// without returns a copy of rows lacking the named row.
func without(rows []Row, name string) []Row {
	var out []Row
	for _, r := range rows {
		if r.Name != name {
			out = append(out, r)
		}
	}
	return out
}

// TestFlattenServe: the serve suite's flat row list carries every serve
// metric in its direction, and compares clean against itself.
func TestFlattenServe(t *testing.T) {
	base := serveBaseline(t)
	dirs := map[string]string{}
	for _, r := range base {
		dirs[r.Name] = r.Better
	}
	for name, want := range map[string]string{
		"latency_p50_ms":        Lower,
		"latency_p99_ms":        Lower,
		"latency_mean_ms":       Lower,
		"rps":                   Higher,
		"dedup_hit_ratio":       Higher,
		"dedup_8way.hit_ratio":  Higher,
		"dedup_8way.executions": Lower,
		"queue.max_depth":       Lower,
		"queue.shed":            Lower,
		"errors":                Lower,
		"requests":              Info,
		"duration_ms":           Info,
	} {
		got, ok := dirs[name]
		if !ok {
			t.Errorf("row %s missing from the serve baseline", name)
			continue
		}
		if got != want {
			t.Errorf("row %s better %q; want %q", name, got, want)
		}
	}
	if res := compare(t, base, base); res.Failed() || len(res.Deltas) != len(base) {
		t.Fatalf("identical serve row lists not clean:\n%s", res.Table())
	}
}

// TestFlattenServeGates: Compare, at the gates the serve baseline
// declares, fails each serve regression and passes sub-floor jitter.
func TestFlattenServeGates(t *testing.T) {
	base := serveBaseline(t)
	value := map[string]float64{}
	for _, r := range base {
		value[r.Name] = r.Value
	}
	// The cases below perturb a healthy run: one execution for the 8-way
	// fan-in, no errors, an empty queue.
	for name, want := range map[string]float64{"dedup_8way.executions": 1, "errors": 0,
		"queue.max_depth": 0, "queue.shed": 0} {
		if value[name] != want {
			t.Fatalf("baseline %s = %v, want %v", name, value[name], want)
		}
	}
	fails := func(what string, cur []Row) {
		t.Helper()
		if !compare(t, base, cur).Failed() {
			t.Errorf("%s did not fail the gate", what)
		}
	}
	passes := func(what string, cur []Row) {
		t.Helper()
		if res := compare(t, base, cur); res.Failed() {
			t.Errorf("%s failed the gate: %v", what, regressed(res))
		}
	}

	// The singleflight invariant: a second execution for the 8-way fan-in
	// is a dedup regression, whatever the timings say.
	fails("dedup_8way executions doubling", with(base, "dedup_8way.executions", 2))
	// A warm-phase dedup collapse regresses as a higher-better ratio.
	fails("dedup hit ratio collapse", with(base, "dedup_hit_ratio", 0.2*value["dedup_hit_ratio"]))
	// An RPS collapse past the speedup tolerance trips the gate.
	fails("RPS collapse", with(base, "rps", 0.2*value["rps"]))
	// Request errors appearing from a zero baseline regress (+Inf change).
	fails("new request errors", with(base, "errors", 3))

	// Millisecond-scale latency jitter under the single-shot floor passes:
	// a p50 several times the baseline's few ms, but under the 25ms floor.
	passes("sub-floor latency jitter", with(base, "latency_p50_ms", 20))

	// A queue blip 0 -> 3 stays under the absolute floor; 0 -> 20 regresses.
	passes("sub-floor queue blip", with(base, "queue.max_depth", 3))
	fails("queue backlog growth", with(base, "queue.max_depth", 20))

	// A dropped row (benchmark silently truncated) is itself a failure.
	fails("dropped dedup_hit_ratio", without(base, "dedup_hit_ratio"))
}
