// Package benchdiff compares committed benchmark baselines against fresh
// runs — the regression gate of the run observatory. Every BENCH_*.json
// document is one nassim-bench/v2 row list, and every row carries its own
// gate: whether lower or higher is better (or neither: informational rows
// are reported when they move but never fail), an optional tolerance and
// an optional absolute noise floor. The emitter that measures a figure
// declares how it gates; this package only parses rows and compares each
// baseline row with the current row of the same name. The default
// tolerances are generous so shared-runner noise does not fail builds.
package benchdiff

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Schema names the one document layout this package reads and writes.
const Schema = "nassim-bench/v2"

// Row directions: which way a row's value improves.
const (
	// Lower marks timings and failure counts: growth is a regression.
	Lower = "lower"
	// Higher marks speedups, ratios, utilization: shrink regresses.
	Higher = "higher"
	// Info rows (sample sizes, fault counts, setup) are reported when they
	// change but never regress.
	Info = "info"
)

// Row is one benchmark figure and its gate.
type Row struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Value  float64 `json:"value"`
	// Tol, when > 0, is the allowed fractional worsening for this row;
	// otherwise the direction's default applies. Single-shot timings (one
	// call, no iteration averaging) are far noisier than ns_per_op figures
	// and declare a wider gate.
	Tol float64 `json:"tol,omitempty"`
	// Floor, when > 0, is an absolute noise floor in the row's own unit: a
	// change whose absolute delta stays under it never regresses, whatever
	// the ratio says. Millisecond-scale single-shot timings need this — a
	// 2ms stage can "triple" on scheduler jitter alone.
	Floor float64 `json:"floor,omitempty"`
}

// Default tolerances for rows that declare none.
const (
	DefaultLowerTolerance  = 0.50
	DefaultHigherTolerance = 0.25
)

// SingleShotTolerance is the suggested tolerance for timings measured from
// one execution: they may double before the gate trips.
const SingleShotTolerance = 1.0

// SpeedupTolerance is the suggested tolerance for derived speedup ratios.
// Parallel speedups measured on shared machines swing hard with scheduler
// load — a burst that lands on one variant but not the other moves the
// ratio alone — so only a drop past 50%, a real collapse, trips the gate.
// (1.0 would make a higher-better ratio ungateable: a positive value
// cannot drop more than 100%.)
const SpeedupTolerance = 0.5

// ShortBenchNS is the total measured time (b.N x ns_per_op) below which a
// Go benchmark's ns_per_op is treated as burst-sensitive rather than
// averaged: whether five 120ms iterations or two hundred 40µs ones, a
// measurement that completes in under a second can land entirely inside
// one host-load burst, so such entries gate at SingleShotTolerance.
const ShortBenchNS = 1e9

// Absolute noise floors for single-shot timings: below 25ms of wall time a
// one-execution measurement is at scheduler-jitter resolution and ratios
// carry no signal. A genuine algorithmic regression in such a stage clears
// the floor easily.
const (
	SingleShotFloorNS      = 25e6  // stage avg_ns / wall_ns rows
	SingleShotFloorSeconds = 0.025 // telemetry *_seconds histogram rows
	SingleShotFloorMs      = 25.0  // millisecond-valued timing rows
)

// GoBench is the row of one Go benchmark's ns/op over n iterations. A
// benchmark whose total measured time is under ShortBenchNS gates at
// SingleShotTolerance.
func GoBench(name string, nsPerOp float64, n int) Row {
	r := Row{Name: "bench." + name + ".ns_per_op", Unit: "ns", Better: Lower, Value: nsPerOp}
	if n > 0 && nsPerOp*float64(n) < ShortBenchNS {
		r.Tol = SingleShotTolerance
	}
	return r
}

// WriteFile writes rows as a nassim-bench/v2 document, sorted by name,
// one row per line so baseline diffs stay readable.
func WriteFile(path string, rows []Row) error {
	rows = sortedRows(rows)
	if err := check(rows); err != nil {
		return err
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"schema": %q, "rows": [`, Schema)
	for i, r := range rows {
		line, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("benchdiff: row %s: %w", r.Name, err)
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n  ")
		b.Write(line)
	}
	b.WriteString("\n]}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// Parse reads a nassim-bench/v2 document and returns its rows sorted by
// name. It rejects any other schema, an unknown direction and a repeated
// row name.
func Parse(doc []byte) ([]Row, error) {
	var d struct {
		Schema string `json:"schema"`
		Rows   []Row  `json:"rows"`
	}
	if err := json.Unmarshal(doc, &d); err != nil {
		return nil, fmt.Errorf("benchdiff: not a JSON document: %w", err)
	}
	if d.Schema != Schema {
		return nil, fmt.Errorf("benchdiff: schema %q, want %q", d.Schema, Schema)
	}
	rows := sortedRows(d.Rows)
	return rows, check(rows)
}

func sortedRows(rows []Row) []Row {
	rows = append([]Row(nil), rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// check validates name-sorted rows.
func check(rows []Row) error {
	for i, r := range rows {
		switch r.Better {
		case Lower, Higher, Info:
		default:
			return fmt.Errorf("benchdiff: row %s: unknown better %q", r.Name, r.Better)
		}
		if i > 0 && rows[i-1].Name == r.Name {
			return fmt.Errorf("benchdiff: row %s repeated", r.Name)
		}
	}
	return nil
}

// tolerance is the fractional worsening a row may show before it regresses.
func (r Row) tolerance() float64 {
	switch {
	case r.Tol > 0:
		return r.Tol
	case r.Better == Higher:
		return DefaultHigherTolerance
	default:
		return DefaultLowerTolerance
	}
}

// Delta is one row's baseline-vs-current comparison.
type Delta struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Base   float64 `json:"base"`
	Cur    float64 `json:"current"`
	// Change is the signed fractional change, (cur-base)/base; +Inf when
	// the baseline is zero and the current value is not.
	Change float64 `json:"change"`
	// Threshold is the tolerance this delta was gated against.
	Threshold float64 `json:"threshold"`
	Regressed bool    `json:"regressed"`
}

// Result is one document pair's comparison.
type Result struct {
	Deltas []Delta `json:"deltas"`
	// MissingCurrent lists baseline rows absent from the current run;
	// AddedCurrent the reverse. Missing rows count as regressions — a
	// benchmark silently dropped is exactly what a gate must catch.
	MissingCurrent []string `json:"missing_current,omitempty"`
	AddedCurrent   []string `json:"added_current,omitempty"`
}

// Regressions returns the deltas that failed the gate.
func (r *Result) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Failed reports whether the comparison must fail the build.
func (r *Result) Failed() bool {
	return len(r.MissingCurrent) > 0 || len(r.Regressions()) > 0
}

// Compare parses both documents and gates every baseline row against the
// current row of the same name, at the baseline row's direction,
// tolerance and floor.
func Compare(baseline, current []byte) (*Result, error) {
	brs, err := Parse(baseline)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	crs, err := Parse(current)
	if err != nil {
		return nil, fmt.Errorf("current: %w", err)
	}
	cur := make(map[string]Row, len(crs))
	for _, r := range crs {
		cur[r.Name] = r
	}
	res := &Result{}
	seen := make(map[string]bool, len(brs))
	for _, br := range brs {
		seen[br.Name] = true
		cr, ok := cur[br.Name]
		if !ok {
			res.MissingCurrent = append(res.MissingCurrent, br.Name)
			continue
		}
		d := Delta{Name: br.Name, Better: br.Better, Base: br.Value, Cur: cr.Value,
			Threshold: br.tolerance()}
		switch {
		case br.Value == 0 && cr.Value == 0:
			d.Change = 0
		case br.Value == 0:
			d.Change = math.Inf(1)
		default:
			d.Change = (cr.Value - br.Value) / math.Abs(br.Value)
		}
		switch br.Better {
		case Lower:
			d.Regressed = d.Change > d.Threshold
		case Higher:
			d.Regressed = d.Change < -d.Threshold
		}
		if d.Regressed && br.Floor > 0 && math.Abs(cr.Value-br.Value) < br.Floor {
			// Under the absolute noise floor the ratio is jitter, not signal.
			d.Regressed = false
		}
		res.Deltas = append(res.Deltas, d)
	}
	for _, cr := range crs {
		if !seen[cr.Name] {
			res.AddedCurrent = append(res.AddedCurrent, cr.Name)
		}
	}
	return res, nil
}

// Table renders the result as an aligned human-readable table; changed or
// regressed rows first, unchanged rows summarized.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-52s %14s %14s %9s  %s\n", "metric", "baseline", "current", "change", "verdict")
	quiet := 0
	for _, d := range r.Deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = fmt.Sprintf("REGRESSED (>%g%% %s)", 100*d.Threshold, worseWord(d.Better))
		} else if d.Change == 0 {
			quiet++
			continue
		} else if d.Better == Info {
			verdict = "info"
		}
		fmt.Fprintf(&b, "  %-52s %14s %14s %+8.1f%%  %s\n",
			d.Name, fmtVal(d.Base), fmtVal(d.Cur), 100*d.Change, verdict)
	}
	for _, name := range r.MissingCurrent {
		fmt.Fprintf(&b, "  %-52s %14s %14s %9s  MISSING from current run\n", name, "-", "-", "")
	}
	for _, name := range r.AddedCurrent {
		fmt.Fprintf(&b, "  %-52s %14s %14s %9s  new metric (no baseline)\n", name, "-", "-", "")
	}
	if quiet > 0 {
		fmt.Fprintf(&b, "  (%d unchanged metric(s) hidden)\n", quiet)
	}
	return b.String()
}

func worseWord(better string) string {
	if better == Higher {
		return "drop"
	}
	return "growth"
}

func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
