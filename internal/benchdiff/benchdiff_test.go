package benchdiff

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// doc renders rows as a nassim-bench/v2 document.
func doc(rows ...Row) []byte {
	b, err := json.Marshal(map[string]any{"schema": Schema, "rows": rows})
	if err != nil {
		panic(err)
	}
	return b
}

// with returns a copy of rows with the named row's value replaced.
func with(rows []Row, name string, v float64) []Row {
	out := append([]Row(nil), rows...)
	for i := range out {
		if out[i].Name == name {
			out[i].Value = v
		}
	}
	return out
}

func compare(t *testing.T, base, cur []Row) *Result {
	t.Helper()
	res, err := Compare(doc(base...), doc(cur...))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// regressed lists the names of the regressed deltas.
func regressed(res *Result) []string {
	var out []string
	for _, d := range res.Regressions() {
		out = append(out, d.Name)
	}
	return out
}

var frontendBase = []Row{
	{Name: "bench.ParseAll/workers1.ns_per_op", Unit: "ns", Better: Lower, Value: 1000000},
	{Name: "bench.ParseAll/workers8.ns_per_op", Unit: "ns", Better: Lower, Value: 500000},
	{Name: "derived.parse_speedup_8w", Unit: "x", Better: Higher, Value: 2.0, Tol: SpeedupTolerance},
}

func TestCompareCleanPass(t *testing.T) {
	res := compare(t, frontendBase, with(frontendBase, "bench.ParseAll/workers1.ns_per_op", 1100000))
	if res.Failed() {
		t.Fatalf("10%% growth within default tolerance failed: %+v", res.Regressions())
	}
	if len(res.Deltas) != len(frontendBase) {
		t.Errorf("deltas = %+v", res.Deltas)
	}
}

// TestCompareTimingRegression: a lower row that grows past the default
// tolerance regresses.
func TestCompareTimingRegression(t *testing.T) {
	res := compare(t, frontendBase, with(frontendBase, "bench.ParseAll/workers1.ns_per_op", 1600000))
	if got := regressed(res); !reflect.DeepEqual(got, []string{"bench.ParseAll/workers1.ns_per_op"}) {
		t.Fatalf("regressions = %v", got)
	}
	if d := res.Regressions()[0]; d.Threshold != DefaultLowerTolerance {
		t.Errorf("threshold = %v, want the lower default", d.Threshold)
	}
	if !strings.Contains(res.Table(), "REGRESSED (>50% growth)") {
		t.Errorf("table lacks verdict:\n%s", res.Table())
	}
}

func TestCompareDerivedRegression(t *testing.T) {
	// A speedup collapse (2.0 -> 0.9, past the row's 50% gate) must fail
	// even though every timing is fine: higher rows gate on drops.
	res := compare(t, frontendBase, with(frontendBase, "derived.parse_speedup_8w", 0.9))
	if got := regressed(res); !reflect.DeepEqual(got, []string{"derived.parse_speedup_8w"}) {
		t.Fatalf("regressions = %v", got)
	}
	if !strings.Contains(res.Table(), "REGRESSED (>50% drop)") {
		t.Errorf("table lacks verdict:\n%s", res.Table())
	}
	// An improvement in the same row must not.
	if res := compare(t, frontendBase, with(frontendBase, "derived.parse_speedup_8w", 4.0)); res.Failed() {
		t.Fatalf("speedup improvement failed the gate: %+v", res.Regressions())
	}
	// Without a row tolerance a higher row takes the higher default.
	ratio := []Row{{Name: "hit_ratio", Unit: "ratio", Better: Higher, Value: 0.8}}
	if res := compare(t, ratio, with(ratio, "hit_ratio", 0.62)); res.Failed() {
		t.Fatalf("-22.5%% drop failed the 25%% default: %+v", res.Regressions())
	}
	if got := regressed(compare(t, ratio, with(ratio, "hit_ratio", 0.58))); len(got) != 1 {
		t.Fatalf("-27.5%% drop passed the 25%% default")
	}
}

// TestCompareDerivedTimingDirection: a derived timing row and a derived
// ratio row share the derived prefix but gate opposite ways, because the
// gate comes from each row's own direction, not from its name: the
// timing regresses on growth and passes on shrink, the ratio the reverse.
func TestCompareDerivedTimingDirection(t *testing.T) {
	base := []Row{
		{Name: "derived.decode_ns_per_artifact", Unit: "ns", Better: Lower, Value: 100000},
		{Name: "derived.parse_worker_utilization_workers8", Unit: "ratio", Better: Higher, Value: 0.8},
	}
	res := compare(t, base, with(base, "derived.decode_ns_per_artifact", 200000))
	if got := regressed(res); !reflect.DeepEqual(got, []string{"derived.decode_ns_per_artifact"}) {
		t.Fatalf("decode time doubled; regressions = %v", got)
	}
	if res := compare(t, base, with(base, "derived.decode_ns_per_artifact", 20000)); res.Failed() {
		t.Fatalf("faster decode failed the gate: %+v", res.Regressions())
	}
	res = compare(t, base, with(base, "derived.parse_worker_utilization_workers8", 0.2))
	if got := regressed(res); !reflect.DeepEqual(got, []string{"derived.parse_worker_utilization_workers8"}) {
		t.Fatalf("utilization collapse; regressions = %v", got)
	}
	if res := compare(t, base, with(base, "derived.parse_worker_utilization_workers8", 1)); res.Failed() {
		t.Fatalf("utilization rise failed the gate: %+v", res.Regressions())
	}
}

// TestInfoRowNeverRegresses: an info row is reported when it moves, in
// either direction, but never fails the gate.
func TestInfoRowNeverRegresses(t *testing.T) {
	base := []Row{{Name: "faults.resets", Unit: "count", Better: Info, Value: 3}}
	for _, v := range []float64{0, 1, 300} {
		res := compare(t, base, with(base, "faults.resets", v))
		if res.Failed() {
			t.Fatalf("info row 3 -> %v failed the gate", v)
		}
		if !strings.Contains(res.Table(), "info") {
			t.Errorf("moved info row not reported:\n%s", res.Table())
		}
	}
	if res := compare(t, base, base); !strings.Contains(res.Table(), "(1 unchanged metric(s) hidden)") {
		t.Errorf("unchanged info row not summarized:\n%s", res.Table())
	}
}

// TestSingleShotTolerance: a row tolerance replaces the default — a
// single-shot stage timing may nearly double, but not more. The gate is
// the baseline row's: the current rows declare no tolerance at all.
// Magnitudes sit well above any floor so only the ratio is under test.
func TestSingleShotTolerance(t *testing.T) {
	base := []Row{{Name: "stage.parse.avg_ns", Unit: "ns", Better: Lower, Value: 100000000,
		Tol: SingleShotTolerance}}
	bare := []Row{{Name: "stage.parse.avg_ns", Unit: "ns", Better: Lower}}
	if res := compare(t, base, with(bare, "stage.parse.avg_ns", 180000000)); res.Failed() { // +80%
		t.Fatalf("+80%% single-shot stage timing failed the 2x gate: %+v", res.Regressions())
	}
	res := compare(t, base, with(bare, "stage.parse.avg_ns", 250000000)) // +150%
	if got := regressed(res); !reflect.DeepEqual(got, []string{"stage.parse.avg_ns"}) {
		t.Fatalf("regressions = %v", got)
	}
}

// TestShortBenchTolerance: a Go benchmark whose total measured time (n x
// ns_per_op) fits inside one host-load burst gates at the single-shot
// tolerance; one that ran for a second or more takes the default.
func TestShortBenchTolerance(t *testing.T) {
	short := GoBench("TFIDFRank", 43000, 200) // 8.6ms total
	want := Row{Name: "bench.TFIDFRank.ns_per_op", Unit: "ns", Better: Lower, Value: 43000,
		Tol: SingleShotTolerance}
	if short != want {
		t.Fatalf("short bench row = %+v, want %+v", short, want)
	}
	if long := GoBench("ValidateConfigs/naive", 325e6, 5); long.Tol != 0 { // 1.6s total
		t.Errorf("long bench row tol = %v, want the default", long.Tol)
	}
	if unknown := GoBench("X", 1, 0); unknown.Tol != 0 {
		t.Errorf("bench row with no iteration count tol = %v", unknown.Tol)
	}
	base := []Row{short}
	if res := compare(t, base, with(base, short.Name, 78000)); res.Failed() { // +81%
		t.Fatalf("+81%% short-bench timing failed the 2x gate: %+v", res.Regressions())
	}
	if got := regressed(compare(t, base, with(base, short.Name, 99000))); len(got) != 1 { // +130%
		t.Fatalf("+130%% short-bench timing passed")
	}
}

// TestAbsoluteNoiseFloor: a millisecond-scale single-shot stage may triple
// on scheduler jitter (delta under the 25ms floor) without regressing, but
// a growth that clears the floor still fails.
func TestAbsoluteNoiseFloor(t *testing.T) {
	base := []Row{{Name: "stage.syntax_cgm.avg_ns", Unit: "ns", Better: Lower, Value: 2000000,
		Tol: SingleShotTolerance, Floor: SingleShotFloorNS}}
	if res := compare(t, base, with(base, "stage.syntax_cgm.avg_ns", 6700000)); res.Failed() { // +235%, delta 4.7ms
		t.Fatalf("sub-floor jitter on a 2ms stage failed the gate: %+v", res.Regressions())
	}
	res := compare(t, base, with(base, "stage.syntax_cgm.avg_ns", 50000000)) // delta 48ms
	if got := regressed(res); !reflect.DeepEqual(got, []string{"stage.syntax_cgm.avg_ns"}) {
		t.Fatalf("regressions = %v", got)
	}
}

// TestCompareMissingMetricFails: a baseline row the current run lacks
// fails the gate; a row only the current run has is reported.
func TestCompareMissingMetricFails(t *testing.T) {
	cur := append([]Row{{Name: "X", Unit: "ns", Better: Lower, Value: 1}}, frontendBase[0], frontendBase[2])
	res := compare(t, frontendBase, cur)
	if !res.Failed() {
		t.Fatal("dropped benchmark did not fail the gate")
	}
	if !reflect.DeepEqual(res.MissingCurrent, []string{"bench.ParseAll/workers8.ns_per_op"}) ||
		!reflect.DeepEqual(res.AddedCurrent, []string{"X"}) {
		t.Fatalf("missing=%v added=%v", res.MissingCurrent, res.AddedCurrent)
	}
	table := res.Table()
	if !strings.Contains(table, "MISSING from current run") || !strings.Contains(table, "new metric (no baseline)") {
		t.Errorf("table:\n%s", table)
	}
	// An added row alone is reported but passes.
	if res := compare(t, frontendBase[:1], frontendBase); res.Failed() || len(res.AddedCurrent) != 2 {
		t.Errorf("added rows: failed=%v added=%v", res.Failed(), res.AddedCurrent)
	}
}

func TestZeroBaseline(t *testing.T) {
	base := []Row{
		{Name: "exec_p50_ms", Unit: "ms", Better: Lower, Value: 0},
		{Name: "retries", Unit: "count", Better: Lower, Value: 0},
	}
	res := compare(t, base, with(base, "exec_p50_ms", 5))
	var d *Delta
	for i := range res.Deltas {
		if res.Deltas[i].Name == "exec_p50_ms" {
			d = &res.Deltas[i]
		}
	}
	if d == nil || !math.IsInf(d.Change, 1) || !d.Regressed {
		t.Fatalf("zero-baseline growth delta = %+v", d)
	}
	if got := regressed(res); len(got) != 1 {
		t.Errorf("zero -> zero regressed: %v", got)
	}
}

func TestParseRejects(t *testing.T) {
	for name, in := range map[string]string{
		"not JSON":       `{`,
		"no schema":      `{"rows": []}`,
		"v1 schema":      `{"schema": "nassim-chaos-bench/v1", "n": 10}`,
		"unknown better": `{"schema": "nassim-bench/v2", "rows": [{"name": "a", "better": "lower-better", "value": 1}]}`,
		"no better":      `{"schema": "nassim-bench/v2", "rows": [{"name": "a", "value": 1}]}`,
		"repeated name": `{"schema": "nassim-bench/v2", "rows": [` +
			`{"name": "a", "better": "lower", "value": 1}, {"name": "a", "better": "info", "value": 2}]}`,
	} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Compare(doc(frontendBase...), []byte(in)); err == nil {
			t.Errorf("%s: compared as current", name)
		}
	}
}

func TestWriteFileParseRoundTrip(t *testing.T) {
	rows := []Row{
		{Name: "stage.parse.avg_ns", Unit: "ns", Better: Lower, Value: 11602723,
			Tol: SingleShotTolerance, Floor: SingleShotFloorNS},
		{Name: "derived.parse_validate_new8_ns", Unit: "ns", Better: Lower, Value: 132720248.80000001},
		{Name: `metric.nassim_pipeline_stage_seconds_sum{stage="parse"}`, Unit: "s", Better: Lower,
			Value: 0.023594015, Tol: SingleShotTolerance, Floor: SingleShotFloorSeconds},
		{Name: "dedup_8way.hit_ratio", Unit: "ratio", Better: Higher, Value: 0.875},
		{Name: "setup.scale", Unit: "ratio", Better: Info, Value: 0.05},
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := WriteFile(path, rows); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One row per line, sorted by name.
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != len(rows)+2 || !strings.HasPrefix(lines[1], `  {"name":"dedup_8way.hit_ratio"`) {
		t.Fatalf("layout:\n%s", data)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedRows(rows)
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", back, want)
	}
	if res, err := Compare(data, data); err != nil || res.Failed() || len(res.Deltas) != len(rows) {
		t.Fatalf("self-compare: %v %+v", err, res)
	}
	// WriteFile refuses what Parse would reject.
	if err := WriteFile(path, append(rows, rows[0])); err == nil {
		t.Error("repeated row written")
	}
	if err := WriteFile(path, []Row{{Name: "a", Better: "lower-better"}}); err == nil {
		t.Error("unknown direction written")
	}
}

// TestStageRows: a stage timed over two calls gates its average as a
// single-shot timing and reports its call count.
func TestStageRows(t *testing.T) {
	want := []Row{
		{Name: "stage.parse.avg_ns", Unit: "ns", Better: Lower, Value: 2e6,
			Tol: SingleShotTolerance, Floor: SingleShotFloorNS},
		{Name: "stage.parse.calls", Unit: "count", Better: Info, Value: 2},
	}
	if got := StageRows("parse", 2, 4*time.Millisecond); !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %+v\nwant %+v", got, want)
	}
}

// TestStageTable: the stage table lists the stages of the given order
// that have calls, with their calls, totals, averages and shares, and a
// total line.
func TestStageTable(t *testing.T) {
	table := StageTable([]string{"parse", "syntax", "hierarchy"},
		map[string]int{"hierarchy": 1, "parse": 2},
		map[string]time.Duration{"hierarchy": time.Second, "parse": 3 * time.Second})
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header, two stages and total:\n%s", len(lines), table)
	}
	for i, want := range [][]string{
		{"stage", "calls", "total", "avg", "share"},
		{"parse", "2", "3s", "1.5s", "75.0%"},
		{"hierarchy", "1", "1s", "1s", "25.0%"},
		{"total", "4s"},
	} {
		if got := strings.Fields(lines[i]); !reflect.DeepEqual(got, want) {
			t.Errorf("line %d = %q, want %q", i, got, want)
		}
	}
}
