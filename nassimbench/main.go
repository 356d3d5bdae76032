// Command nassimbench is the repository's end-to-end benchmark. It runs
// one workload per invocation and prints every metric by name with its
// unit, then one JSON result line:
//
//	nassimbench --workload onboard_paper --seed 0 --seconds 20 --trace 0
//
// Workloads:
//
//	onboard_paper  Table 4's onboarding at paper scale, cold then restart,
//	               each sample in a fresh process
//	serve_hot      the nassimd byte-cache hit path, closed loop
//	serve_miss     the nassimd miss path (live test per request), closed loop
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced run. run.sh builds the
// nassim CLI and this program from source and then runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

var endToEnd = []string{"setup_s", "cold_s", "restart_s", "rps", "p50_ms", "p90_ms", "peak_rss_mb"}

// perLayer lists every per-layer metric with its unit. Each workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"parse.busy_s", "s"}, {"parse.pages", "count"},
	{"htmlparse.busy_s", "s"}, {"htmlparse.mb", "MB"},
	{"syntax_cgm.busy_s", "s"}, {"syntax_cgm.templates", "count"}, {"syntax_cgm.cache_hit_ratio", "ratio"},
	{"hierarchy.busy_s", "s"}, {"cgm.match_attempts", "count"}, {"cgm.pruned_ratio", "1/attempt"},
	{"empirical.busy_s", "s"}, {"empirical.lines", "count"}, {"empirical.memo_hit_ratio", "1/line"},
	{"empirical.pool_utilization", "ratio"},
	{"map_to_udm.busy_s", "s"}, {"map_to_udm.params", "count"}, {"mapper.us_per_param", "us"},
	{"artifact.encode_s", "s"}, {"artifact.written_mb", "MB"},
	{"artifact.decode_s", "s"}, {"artifact.read_mb", "MB"},
	{"pipeline.stage_runs", "count"}, {"pipeline.stage_hits", "count"},
	{"pipeline.unattributed_s", "s"},
	{"process.cpu_s", "s"}, {"process.core_utilization", "ratio"}, {"gc.cpu_s", "s"},
	{"synthetic.generate_s", "s"},
	{"serve.decode_us", "us"}, {"serve.admit_us", "us"}, {"serve.wait_us", "us"},
	{"serve.bytes_per_req", "B"}, {"daemon.cpu_ms_per_req", "ms"},
	{"http.us_per_req", "us"},
	{"daemon.gc_cpu_fraction", "ratio"},
	{"serve.cache_hit_ratio", "ratio"},
	{"loadgen.cpu_us_per_req", "us"},
	{"synthetic.generate_ms_per_req", "ms"}, {"pipeline.hash_ms_per_req", "ms"}, {"pipeline.stage_hit_ratio", "ratio"},
	{"live_test.busy_ms_per_req", "ms"}, {"device.exchanges_per_req", "count"}, {"device.us_per_exchange", "us"},
	{"serve.build_ms_per_req", "ms"}, {"serve.encode_ms_per_req", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.cached_mb", "MB"},
	{"host.steal_share", "ratio"}, {"trace.overhead_ratio", "ratio"},
}

// layerUnit returns a per-layer metric's unit.
func layerUnit(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	return "count"
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nassim   string // path of the built nassim CLI
	self     string // path of this binary, for sample processes
	work     string // scratch directory of this run, removed at exit
	traces   string // directory the traced runs write their spans to
	steal    *stealLog
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	failures          []string
	metrics           metricSet
	diags             metricSet
	notes             []string
}

func newResult() *result { return &result{metrics: metricSet{}, diags: metricSet{}} }

func (r *result) diag(name string, v float64, unit string) { r.diags.set(name, v, unit) }
func (r *result) note(s string)                            { r.notes = append(r.notes, s) }

// fail records one failed operation.
func (r *result) fail(msg string) { r.absorb(0, 1, []string{msg}) }

// absorb adds operations attempted and failed, keeping the first few
// failure messages for the report.
func (r *result) absorb(attempted, failed int, msgs []string) {
	r.attempted += attempted
	r.failed += failed
	for _, m := range msgs {
		if len(r.failures) < 20 {
			r.failures = append(r.failures, m)
		}
	}
}

func main() {
	if len(os.Args) > 1 && (os.Args[1] == "onboard-process" || os.Args[1] == "spin") {
		var err error
		if os.Args[1] == "spin" {
			err = runSpinner()
		} else {
			err = runOnboardProcess(os.Args[2:])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "nassimbench:", err)
			os.Exit(1)
		}
		return
	}
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "nassimbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("nassimbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "onboard_paper, serve_hot or serve_miss")
	seed := fs.Uint64("seed", 0, "workload seed (0 reproduces Table 4's inputs)")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	nassimBin := fs.String("nassim", "", "path of the built nassim CLI")
	work := fs.String("work", "", "scratch directory for mirrors and traces")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return 2, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return 1, err
	}
	if *work == "" {
		*work = filepath.Join(filepath.Dir(self), "work")
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return 1, err
	}
	runDir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(runDir)
	o := &options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nassim: *nassimBin, self: self, work: runDir, traces: filepath.Join(*work, "traces"),
		steal: startStealLog()}
	if o.trace {
		if err := os.MkdirAll(o.traces, 0o755); err != nil {
			return 1, err
		}
	}
	defer o.steal.close()

	h := readHost()
	st0, _ := readCPUStat()
	var res *result
	switch o.workload {
	case "onboard_paper":
		res, err = runOnboard(o)
	case "serve_hot":
		res, err = runServe(o, false)
	case "serve_miss":
		res, err = runServe(o, true)
	default:
		return 2, fmt.Errorf("unknown --workload %q (onboard_paper, serve_hot, serve_miss)", o.workload)
	}
	if err != nil {
		return 1, err
	}
	st1, _ := readCPUStat()
	steal := stealShare(st0, st1)
	if o.trace {
		res.metrics.set("host.steal_share", steal, "ratio")
	}
	return report(o, h, steal, res)
}

// report prints the human-readable lines and the JSON result line, and
// returns the exit code: non-zero when an output check failed.
func report(o *options, h host, steal float64, res *result) (int, error) {
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("host: GOMAXPROCS=%d nproc=%d cpu=%q go=%s kernel=%s steal_share=%.4f\n",
		h.GOMAXPROCS, h.NumCPU, h.CPUModel, h.GoVersion, h.Kernel, steal)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	names := endToEnd
	if o.trace {
		names = nil
		// Layers this workload does not exercise read 0.
		for _, l := range perLayer {
			names = append(names, l.name)
			if _, ok := res.metrics[l.name]; !ok {
				res.metrics.set(l.name, 0, l.unit)
			}
		}
	}
	picked, err := res.metrics.only(names)
	if err != nil {
		return 1, err
	}
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, picked[n].Value, picked[n].Unit)
	}
	var diagNames []string
	for n := range res.diags {
		diagNames = append(diagNames, n)
	}
	sort.Strings(diagNames)
	for _, n := range diagNames {
		d := res.diags[n]
		fmt.Printf("diag %-27s %14.6g %s\n", n, d.Value, d.Unit)
	}
	fmt.Printf("attempted %d failed %d\n", res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Println("FAILED: " + f)
	}
	correct := res.failed == 0 && res.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, picked})
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !correct {
		return 1, nil
	}
	return 0, nil
}
