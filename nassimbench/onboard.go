package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"nassim"
	"nassim/internal/configgen"
	"nassim/internal/devmodel"
	"nassim/internal/htmlparse"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// The onboard_paper workload runs Table 4's onboarding at scale 1.0 the
// way `nassim run` does by default (4 vendor workers, stage workers unset,
// validation on, disk mirror on) plus map_to_udm over every VDM parameter
// with the IR+SBERT mapper at top-10. Each sample is a fresh process of
// this binary: a cold one over an empty mirror, then a restart over the
// mirror the cold one wrote. Three caches are process-global (the
// clisyntax parse cache, the cgm compiled-template cache and the
// htmlparse intern pool), so only a fresh process measures cold work.

// table4 holds Table 4's exact rows at the default seed, in vendor order
// Huawei, Cisco, Nokia, H3C.
var table4 = map[string][4]int{ // commands, views, invalid CLIs, ambiguous views
	"Huawei": {12874, 607, 13, 47},
	"Cisco":  {278, 27, 19, 8},
	"Nokia":  {14046, 3832, 139, 0},
	"H3C":    {759, 28, 13, 4},
}

// table4ConfigFiles is Table 4's "#Config Files" row.
var table4ConfigFiles = map[string]int{"Huawei": 197, "Nokia": 416}

// genSeed derives a generator seed from the paper's seed and the workload
// seed; workload seed 0 keeps the paper's seed and so reproduces Table 4.
func genSeed(paper, seed uint64) uint64 { return paper ^ seed*0x9e3779b97f4a7c15 }

// onboardInput is one vendor's generated input with its ground truth.
type onboardInput struct {
	model *nassim.DeviceModel
	pages []nassim.Page
	files []nassim.ConfigFile
}

func generateInputs(seed uint64) ([]onboardInput, error) {
	var out []onboardInput
	for _, name := range nassim.Vendors() {
		var v devmodel.Vendor
		for _, cand := range devmodel.AllVendors {
			if string(cand) == name {
				v = cand
			}
		}
		if v == "" {
			return nil, fmt.Errorf("onboard: no generator for vendor %s", name)
		}
		cfg := devmodel.PaperConfig(v)
		cfg.Seed = genSeed(cfg.Seed, seed)
		in := onboardInput{model: devmodel.Generate(cfg)}
		in.pages = nassim.SyntheticManual(in.model)
		if ccfg, ok := configgen.PaperConfig(v); ok {
			ccfg.Seed = genSeed(ccfg.Seed, seed)
			in.files = configgen.Generate(in.model, ccfg).Files
		}
		out = append(out, in)
	}
	return out, nil
}

// coldCacheCounters are the process-global cache counters that must read
// zero when a cold or restart sample's timed phase starts.
var coldCacheCounters = []string{
	"nassim_syntax_parse_cache_hits_total",
	"nassim_cgm_graph_cache_hits_total",
}

// checkColdCaches rejects a sample whose timed phase would start with warm
// process-global caches.
func checkColdCaches(snap map[string]float64) error {
	for _, name := range coldCacheCounters {
		if v := snap[name]; v != 0 {
			return fmt.Errorf("%s = %v at the start of the timed phase; the sample is not cold", name, v)
		}
	}
	return nil
}

// onboardRow is what one vendor's job produced, next to its ground truth.
type onboardRow struct {
	Vendor                     string
	Commands, Views            int
	Invalid, Ambiguous         int
	ConfigFiles                int
	LinesMatched, LinesTotal   int
	Params, ParamsWithTopK     int
	WantCommands, WantViews    int
	WantInvalid, WantAmbiguous int
	WantConfigFiles            int
}

// checkOnboardRow compares a job's Table 4 row with the generator's ground
// truth and, at the default seed, with the paper's exact rows. It returns
// one message per failed check.
func checkOnboardRow(r onboardRow, defaultSeed bool) []string {
	var bad []string
	eq := func(what string, got, want int) {
		if got != want {
			bad = append(bad, fmt.Sprintf("%s %s = %d, want %d", r.Vendor, what, got, want))
		}
	}
	eq("commands", r.Commands, r.WantCommands)
	eq("views", r.Views, r.WantViews)
	eq("invalid CLIs", r.Invalid, r.WantInvalid)
	eq("ambiguous views", r.Ambiguous, r.WantAmbiguous)
	eq("config files", r.ConfigFiles, r.WantConfigFiles)
	eq("matched config lines", r.LinesMatched, r.LinesTotal)
	eq("parameters with ten recommendations", r.ParamsWithTopK, r.Params)
	if r.Params == 0 {
		bad = append(bad, r.Vendor+": no parameters mapped")
	}
	if defaultSeed {
		if w, ok := table4[r.Vendor]; ok {
			eq("Table 4 commands", r.Commands, w[0])
			eq("Table 4 views", r.Views, w[1])
			eq("Table 4 invalid CLIs", r.Invalid, w[2])
			eq("Table 4 ambiguous views", r.Ambiguous, w[3])
		}
		eq("Table 4 config files", r.ConfigFiles, table4ConfigFiles[r.Vendor])
	}
	return bad
}

// onboardSample is one cold or restart process's report to the parent.
type onboardSample struct {
	Mode      string    `json:"mode"`
	GenerateS float64   `json:"generate_s"`
	SetupS    []float64 `json:"setup_s"`
	RunS      float64   `json:"run_s"`
	JobS      []float64 `json:"job_s"`
	Jobs      int       `json:"jobs"`
	// FailedJobs counts jobs with a failed output check; a sample that
	// starts warm fails all of its jobs.
	FailedJobs int                `json:"failed_jobs"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	Failures   []string           `json:"failures"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// setupsPerProcess is how many times each process builds the UDM, mapper
// and engine. Each build takes tens of milliseconds, so setup_s is the
// median over all of a run's builds.
const setupsPerProcess = 5

// runOnboardProcess is the child side: one cold or restart sample.
func runOnboardProcess(args []string) error {
	fs := flag.NewFlagSet("onboard-process", flag.ContinueOnError)
	mode := fs.String("mode", "cold", "cold or restart")
	seed := fs.Uint64("seed", 0, "workload seed")
	mirror := fs.String("mirror", "", "disk mirror directory")
	traced := fs.Bool("trace", false, "record stage spans and layer counts")
	spansOut := fs.String("spans", "", "write recorded spans to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := measureOnboardProcess(*mode, *seed, *mirror, *traced, *spansOut)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

func measureOnboardProcess(mode string, seed uint64, mirror string, traced bool, spansOut string) (*onboardSample, error) {
	s := &onboardSample{Mode: mode, Layers: map[string]float64{}}
	t0 := time.Now()
	inputs, err := generateInputs(seed)
	if err != nil {
		return nil, err
	}
	s.GenerateS = time.Since(t0).Seconds()

	var mp *nassim.Mapper
	var eng *pipeline.Engine
	tr := &tracer{}
	var hookMu sync.Mutex
	jobEnd := map[string]time.Time{}
	jobSpan := map[string]int{} // vendor -> its job span, written before the run starts
	hook := func(vendor string, stage pipeline.Stage) func() {
		var end func()
		if traced {
			_, end = tr.begin(string(stage), vendor, jobSpan[vendor])
		}
		return func() {
			if end != nil {
				end()
			}
			now := time.Now()
			hookMu.Lock()
			if now.After(jobEnd[vendor]) {
				jobEnd[vendor] = now
			}
			hookMu.Unlock()
		}
	}
	for i := 0; i < setupsPerProcess; i++ {
		st := time.Now()
		u := nassim.BuildUDM()
		mp, err = nassim.NewMapper(u, nassim.ModelIRSBERT)
		if err != nil {
			return nil, err
		}
		eng, err = pipeline.New(pipeline.Config{Workers: 4, CacheDir: mirror, StageHook: hook})
		if err != nil {
			return nil, err
		}
		s.SetupS = append(s.SetupS, time.Since(st).Seconds())
	}

	jobs := make([]pipeline.Job, len(inputs))
	for i, in := range inputs {
		m := in.model
		jobs[i] = pipeline.Job{
			Vendor:      string(m.Vendor),
			Pages:       in.pages,
			Correct:     func(flagged []vdm.InvalidCLI) []nassim.Correction { return nassim.ExpertCorrections(m, flagged) },
			ConfigFiles: in.files,
			Map:         &pipeline.MapSpec{Mapper: mp.Mapper, TopK: 10},
		}
	}

	before := telemetry.Default().FlatSnapshot()
	coldErr := checkColdCaches(before)
	if traced {
		for _, in := range inputs {
			jobSpan[string(in.model.Vendor)], _ = tr.begin("job", string(in.model.Vendor), 0)
		}
	}
	cpu0, gc0 := selfCPU(), gcCPU()
	start := time.Now()
	jrs, runErr := eng.Run(context.Background(), jobs)
	end := time.Now()
	cpu1, gc1 := selfCPU(), gcCPU()
	s.RunS = end.Sub(start).Seconds()
	if runErr != nil {
		s.Failures = append(s.Failures, fmt.Sprintf("%s: engine run: %v", mode, runErr))
	}
	for _, in := range inputs {
		v := string(in.model.Vendor)
		if t, ok := jobEnd[v]; ok {
			s.JobS = append(s.JobS, t.Sub(start).Seconds())
		}
	}
	s.Jobs = len(jobs)
	for i := range jobs {
		var bad []string
		if i < len(jrs) && jrs[i] != nil {
			bad = checkOnboardRow(rowOf(inputs[i], jrs[i]), seed == 0)
		} else {
			bad = []string{jobs[i].Vendor + ": no result"}
		}
		if len(bad) > 0 {
			s.FailedJobs++
		}
		for _, msg := range bad {
			s.Failures = append(s.Failures, mode+": "+msg)
		}
	}
	if coldErr != nil {
		s.FailedJobs = s.Jobs
		s.Failures = append(s.Failures, mode+": "+coldErr.Error())
	}
	if rss, err := peakRSSMB(os.Getpid()); err == nil {
		s.PeakRSSMB = rss
	} else {
		return nil, err
	}

	if traced {
		for v, id := range jobSpan {
			tr.setEnd(id, jobEnd[v])
		}
		run := onboardRun{mode: mode, mirror: mirror, inputs: inputs, jrs: jrs, start: start, end: end,
			before: before, after: telemetry.Default().FlatSnapshot(), cpu: cpu1 - cpu0, gcCPU: gc1 - gc0}
		if err := run.layers(s.Layers, tr.snapshot()); err != nil {
			return nil, err
		}
		if mode == "cold" {
			s.Layers["synthetic.generate_s"] = s.GenerateS
		}
		if spansOut != "" {
			if err := tr.writeFile(spansOut); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// onboardRun is what a traced sample's layer figures are computed from.
type onboardRun struct {
	mode, mirror  string
	inputs        []onboardInput
	jrs           []*pipeline.JobResult
	start, end    time.Time
	before, after map[string]float64 // telemetry registry snapshots
	cpu           time.Duration
	gcCPU         float64
}

// layers fills in the per-layer figures of a cold or restart sample from
// its stage spans and registry deltas, then runs the kernel pass: the
// htmlparse tokenizer and DOM build over the same pages (cold), or the
// artifact decode over the mirror (restart).
func (r *onboardRun) layers(L map[string]float64, all []span) error {
	delta := func(family string) float64 { return sumDelta(r.before, r.after, family) }
	var stages []span
	for _, sp := range all {
		if sp.Name != "job" {
			stages = append(stages, sp)
		}
	}
	busy := selfTimes(all)
	if r.mode == "restart" {
		var runs, hits int
		var readMB float64
		for _, jr := range r.jrs {
			if jr == nil {
				continue
			}
			runs += len(jr.Ran)
			hits += len(jr.Skipped)
			for _, ld := range jr.DiskLoads {
				readMB += float64(ld.Bytes) / (1 << 20)
			}
		}
		L["pipeline.stage_runs"] = float64(runs)
		L["pipeline.stage_hits"] = float64(hits)
		L["artifact.read_mb"] = readMB
		d, err := decodeMirror(r.mirror)
		L["artifact.decode_s"] = d.Seconds()
		return err
	}
	for _, st := range []pipeline.Stage{pipeline.StageParse, pipeline.StageSyntaxValidate,
		pipeline.StageDeriveHierarchy, pipeline.StageEmpiricalValidate, pipeline.StageMapToUDM} {
		L[string(st)+".busy_s"] = busy[string(st)].Seconds()
	}
	L["parse.pages"] = delta("nassim_parser_pages_parsed_total")
	L["syntax_cgm.templates"] = delta("nassim_cgm_templates_added_total")
	L["syntax_cgm.cache_hit_ratio"] = ratio(delta("nassim_syntax_parse_cache_hits_total"),
		delta("nassim_syntax_cli_checked_total"))
	L["cgm.match_attempts"] = delta("nassim_cgm_match_attempts_total")
	L["cgm.pruned_ratio"] = ratio(delta("nassim_cgm_match_pruned_total"), delta("nassim_cgm_match_attempts_total"))
	L["empirical.lines"] = delta("nassim_empirical_lines_total")
	L["empirical.memo_hit_ratio"] = ratio(delta("nassim_empirical_memo_hits_total"), delta("nassim_empirical_lines_total"))
	var empBusy, empCap float64
	params := 0
	for _, jr := range r.jrs {
		if jr == nil {
			continue
		}
		if ps, ok := jr.Pools[pipeline.StageEmpiricalValidate]; ok {
			empBusy += ps.Busy().Seconds()
			empCap += float64(ps.WallNS) / 1e9 * float64(min(ps.Workers, runtime.GOMAXPROCS(0)))
		}
		params += len(jr.Mapping)
	}
	L["empirical.pool_utilization"] = ratio(empBusy, empCap)
	L["map_to_udm.params"] = float64(params)
	L["mapper.us_per_param"] = ratio(busy[string(pipeline.StageMapToUDM)].Seconds()*1e6, float64(params))
	L["artifact.encode_s"] = mirrorWriteGaps(stages).Seconds()
	L["artifact.written_mb"] = dirMB(r.mirror)
	L["pipeline.unattributed_s"] = unattributed(r.start, r.end, stages).Seconds()
	wall := r.end.Sub(r.start).Seconds()
	L["process.cpu_s"] = r.cpu.Seconds()
	L["process.core_utilization"] = ratio(r.cpu.Seconds(), wall*float64(runtime.GOMAXPROCS(0)))
	L["gc.cpu_s"] = r.gcCPU

	var pages [][]byte
	var mb float64
	for _, in := range r.inputs {
		for _, pg := range in.pages {
			pages = append(pages, []byte(pg.HTML))
			mb += float64(len(pg.HTML)) / (1 << 20)
		}
	}
	t := time.Now()
	pool := htmlparse.NewIntern()
	for _, pg := range pages {
		htmlparse.ParseBytes(pg, pool)
	}
	L["htmlparse.busy_s"] = time.Since(t).Seconds()
	L["htmlparse.mb"] = mb
	return nil
}

func rowOf(in onboardInput, jr *pipeline.JobResult) onboardRow {
	m := in.model
	r := onboardRow{
		Vendor:   string(m.Vendor),
		Commands: len(jr.VDM.Corpora), Views: len(jr.VDM.Views),
		Invalid: len(jr.Invalid), Ambiguous: len(jr.VDM.AmbiguousViews()),
		WantCommands: len(m.Commands), WantViews: len(m.Views),
		WantInvalid: len(m.SyntaxErrorIDs), WantAmbiguous: len(m.AmbiguousViewNames),
		WantConfigFiles: len(in.files),
		Params:          len(jr.VDM.Parameters()),
	}
	if jr.Empirical != nil {
		r.ConfigFiles = jr.Empirical.Files
		r.LinesMatched, r.LinesTotal = jr.Empirical.MatchedLines, jr.Empirical.TotalLines
	}
	for _, mp := range jr.Mapping {
		if len(mp.Recommendations) == 10 {
			r.ParamsWithTopK++
		}
	}
	return r
}

// sumDelta sums after-before over every flattened series of one metric
// family (all label sets).
func sumDelta(before, after map[string]float64, family string) float64 {
	total := 0.0
	for k, v := range after {
		if k == family || strings.HasPrefix(k, family+"{") {
			total += v - before[k]
		}
	}
	return total
}

// gcCPU reads the runtime's cumulative GC CPU estimate in seconds.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// mirrorWriteGaps sums, per vendor, the time between the end of a stage
// whose artifact the engine mirrors to disk (parse, hierarchy) and the
// start of that vendor's next stage: the engine encodes and writes the
// artifact there, and hashes the next stage's key.
func mirrorWriteGaps(spans []span) time.Duration {
	byVendor := map[string][]span{}
	for _, s := range spans {
		byVendor[s.Group] = append(byVendor[s.Group], s)
	}
	var total time.Duration
	for _, ss := range byVendor {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start.Before(ss[j].Start) })
		for i := 0; i+1 < len(ss); i++ {
			if ss[i].Name == string(pipeline.StageParse) || ss[i].Name == string(pipeline.StageDeriveHierarchy) {
				total += ss[i+1].Start.Sub(ss[i].End)
			}
		}
	}
	return total
}

// dirMB is the total size of the regular files in dir, in MB.
func dirMB(dir string) float64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return float64(n) / (1 << 20)
}

// decodeMirror decodes every artifact in the disk mirror through the
// engine's codecs and returns the time spent decoding.
func decodeMirror(dir string) (time.Duration, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, e := range ents {
		name := e.Name()
		var stage pipeline.Stage
		for _, st := range []pipeline.Stage{pipeline.StageParse, pipeline.StageDeriveHierarchy} {
			if strings.HasPrefix(name, string(st)+"-") {
				stage = st
			}
		}
		if stage == "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		codec := name[strings.IndexByte(name, '.')+1:]
		t := time.Now()
		if err := pipeline.DecodeStoredArtifact(pipeline.StoredArtifact{Stage: stage, Codec: codec, Data: data}); err != nil {
			return 0, fmt.Errorf("onboard: decode %s: %w", name, err)
		}
		total += time.Since(t)
	}
	return total, nil
}

// runOnboard is the parent side: cold/restart pairs of fresh processes,
// each figure the median over the run's samples. A traced run times one
// untraced pair, for the tracing overhead, then one traced pair.
func runOnboard(o *options) (*result, error) {
	res := newResult()
	pairs := max(4, o.seconds/5)
	if o.trace {
		pairs = 1
	}
	var colds, restarts, setups, jobs, rss []float64
	var wall float64
	total := pairs
	if o.trace {
		total++
	}
	for p := 0; p < total; p++ {
		traced := p == pairs
		mirror, err := os.MkdirTemp(o.work, "mirror-")
		if err != nil {
			return nil, err
		}
		var pair [2]*onboardSample
		for i, mode := range []string{"cold", "restart"} {
			s, err := spawnOnboard(o, mode, mirror, traced)
			if err != nil {
				os.RemoveAll(mirror)
				return nil, err
			}
			pair[i] = s
			res.absorb(s.Jobs, s.FailedJobs, s.Failures)
		}
		os.RemoveAll(mirror)
		if traced {
			for _, s := range pair {
				for k, v := range s.Layers {
					res.metrics.set(k, v, layerUnit(k))
				}
			}
			res.metrics.set("trace.overhead_ratio", ratio(pair[0].RunS-colds[0], colds[0]), "ratio")
			continue
		}
		colds = append(colds, pair[0].RunS)
		restarts = append(restarts, pair[1].RunS)
		for _, s := range pair {
			setups = append(setups, s.SetupS...)
			jobs = append(jobs, s.JobS...)
			wall += s.RunS
		}
		rss = append(rss, max(pair[0].PeakRSSMB, pair[1].PeakRSSMB))
		res.note(fmt.Sprintf("pair %d: cold %.3f s, restart %.3f s, generate %.3f s, peak RSS %.0f MB",
			p+1, pair[0].RunS, pair[1].RunS, pair[0].GenerateS, max(pair[0].PeakRSSMB, pair[1].PeakRSSMB)))
	}
	m := res.metrics
	m.set("setup_s", median(setups), "s")
	m.set("cold_s", median(colds), "s")
	m.set("restart_s", median(restarts), "s")
	m.set("rps", float64(len(jobs))/wall, "req/s")
	m.set("p50_ms", percentile(jobs, 50)*1e3, "ms")
	m.set("p90_ms", percentile(jobs, 90)*1e3, "ms")
	m.set("peak_rss_mb", median(rss), "MB")
	res.diag("onboard.pairs", float64(pairs), "count")
	res.diag("onboard.jobs", float64(len(jobs)), "count")
	return res, nil
}

// spawnOnboard runs one sample in a fresh process of this binary and
// waits for it to exit.
func spawnOnboard(o *options, mode, mirror string, traced bool) (*onboardSample, error) {
	args := []string{"onboard-process", "-mode", mode, "-seed", fmt.Sprint(o.seed), "-mirror", mirror}
	if traced {
		args = append(args, "-trace", "-spans", spansPath(o, mode))
	}
	cmd := exec.Command(o.self, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("onboard: %s process: %w", mode, err)
	}
	var s onboardSample
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("onboard: %s process output: %w", mode, err)
	}
	return &s, nil
}
