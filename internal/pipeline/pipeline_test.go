package pipeline

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"nassim/internal/configgen"
	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/empirical"
	"nassim/internal/manualgen"
	"nassim/internal/mapper"
	"nassim/internal/nlp"
	"nassim/internal/parser"
	"nassim/internal/telemetry"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

// testJob renders a scaled synthetic manual and wires the ground-truth
// expert corrections, like the public API does.
func testJob(t testing.TB, v devmodel.Vendor, scale float64) (Job, *devmodel.Model) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(scale))
	man := manualgen.Render(m)
	pages := make([]parser.Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = parser.Page{URL: pg.URL, HTML: pg.HTML}
	}
	return Job{
		Vendor: string(v),
		Pages:  pages,
		Correct: func(flagged []vdm.InvalidCLI) []Correction {
			var out []Correction
			for _, ic := range flagged {
				if ic.Corpus >= 0 && ic.Corpus < len(m.Commands) {
					out = append(out, Correction{Corpus: ic.Corpus, CLI: m.Commands[ic.Corpus].Template})
				}
			}
			return out
		},
	}, m
}

// fullJob extends testJob with configuration files and an IR+SBERT
// MapSpec over every parameter, so all four disk-mirrored stages run:
// parse, hierarchy, empirical and map_to_udm. Vendors without a Table 4
// configuration corpus borrow Huawei's corpus shape, and one extra file
// holds a line no template matches, so the empirical report carries a
// failure.
func fullJob(t testing.TB, v devmodel.Vendor, scale float64, opts ...mapper.Option) Job {
	t.Helper()
	job, m := testJob(t, v, scale)
	cfg, ok := configgen.PaperConfig(v)
	if !ok {
		cfg, _ = configgen.PaperConfig(devmodel.Huawei)
	}
	job.ConfigFiles = append(configgen.Generate(m, cfg.Scaled(scale)).Files,
		configgen.File{Name: "unknown.cfg", Lines: []string{"frobnicate the widget 42"}})
	// 96 is nassim.EncoderDim, which this package cannot import.
	mp, err := mapper.New(udm.Build(devmodel.Concepts()), nlp.NewSBERT(96, devmodel.GeneralSynonyms()), true, opts...)
	if err != nil {
		t.Fatal(err)
	}
	job.Map = &MapSpec{Mapper: mp, TopK: 10}
	return job
}

// sameStageResults reports how a disk-loaded result differs from the cold
// one in its empirical report (Pool aside: it is observational and not
// stored) and its mappings: every parameter, attribute index, attribute and
// score bit must match.
func sameStageResults(t *testing.T, cold, warm *JobResult) {
	t.Helper()
	if (cold.Empirical == nil) != (warm.Empirical == nil) {
		t.Fatalf("empirical report presence differs: cold %v, warm %v", cold.Empirical != nil, warm.Empirical != nil)
	}
	if cold.Empirical != nil {
		c, w := *cold.Empirical, *warm.Empirical
		w.Pool = c.Pool
		if !reflect.DeepEqual(c, w) {
			t.Errorf("empirical report differs:\ncold %v\nwarm %v", &c, &w)
		}
	}
	if len(cold.Mapping) != len(warm.Mapping) || (cold.Mapping == nil) != (warm.Mapping == nil) {
		t.Fatalf("mappings: cold %d, warm %d", len(cold.Mapping), len(warm.Mapping))
	}
	for i, cm := range cold.Mapping {
		wm := warm.Mapping[i]
		if !reflect.DeepEqual(cm.Param, wm.Param) {
			t.Fatalf("mapping %d: param %+v, want %+v", i, wm.Param, cm.Param)
		}
		if len(cm.Recommendations) != len(wm.Recommendations) {
			t.Fatalf("mapping %d: %d recommendations, want %d", i, len(wm.Recommendations), len(cm.Recommendations))
		}
		for j, cr := range cm.Recommendations {
			wr := wm.Recommendations[j]
			if wr.AttrIndex != cr.AttrIndex || !reflect.DeepEqual(wr.Attr, cr.Attr) ||
				math.Float64bits(wr.Score) != math.Float64bits(cr.Score) {
				t.Fatalf("mapping %d rec %d: %+v, want %+v", i, j, wr, cr)
			}
		}
	}
}

func marshalVDM(t *testing.T, v *vdm.VDM) []byte {
	t.Helper()
	data, err := v.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestEngineColdThenWarm(t *testing.T) {
	store := NewMemStore()
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := testJob(t, devmodel.H3C, 0.02)

	cold, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold[0].Skipped) != 0 || len(cold[0].Ran) == 0 {
		t.Fatalf("cold run: ran=%v skipped=%v", cold[0].Ran, cold[0].Skipped)
	}
	if cold[0].CorrectionsApplied == 0 {
		t.Error("no expert corrections applied (errors were injected)")
	}

	warm, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm[0].Ran) != 0 {
		t.Errorf("warm run executed stages: %v", warm[0].Ran)
	}
	if len(warm[0].Skipped) != len(cold[0].Ran) {
		t.Errorf("warm run skipped %v, cold ran %v", warm[0].Skipped, cold[0].Ran)
	}
	if !bytes.Equal(marshalVDM(t, cold[0].VDM), marshalVDM(t, warm[0].VDM)) {
		t.Error("warm VDM differs from cold VDM")
	}
}

func TestEngineDiskCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	job := fullJob(t, devmodel.Cisco, 0.02)

	first, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := first.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold[0].Mapping) == 0 || cold[0].Empirical == nil || cold[0].Empirical.MatchedLines == 0 {
		t.Fatalf("cold run mapped %d parameters, empirical %v", len(cold[0].Mapping), cold[0].Empirical)
	}

	// A fresh engine (empty memory store) over the same directory must
	// warm-start the four mirrored stages and run only syntax_cgm, which
	// parses and compiles no CGM: the index loads with the hierarchy.
	second, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	added := telemetry.GetCounter("nassim_cgm_templates_added_total")
	before := added.Value()
	warm, err := second.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageSyntaxValidate}; !slices.Equal(warm[0].Ran, want) {
		t.Errorf("warm run executed %v, want %v", warm[0].Ran, want)
	}
	if n := added.Value() - before; n != 0 {
		t.Errorf("warm run compiled %d CGMs, want 0", n)
	}
	want := map[Stage]string{StageParse: "parse/v1", StageDeriveHierarchy: "derive/v2",
		StageEmpiricalValidate: "empirical/v1", StageMapToUDM: "map/v1"}
	for st, codec := range want {
		if got := warm[0].DiskLoads[st].Codec; got != codec {
			t.Errorf("%s loaded via %q, want %q", st, got, codec)
		}
	}
	if !bytes.Equal(marshalVDM(t, cold[0].VDM), marshalVDM(t, warm[0].VDM)) {
		t.Error("disk-loaded VDM differs from cold VDM")
	}
	sameStageResults(t, cold[0], warm[0])

	// A mapper with another fingerprint must miss the mirrored mappings and
	// re-run the stage; everything upstream still loads.
	other := fullJob(t, devmodel.Cisco, 0.02, mapper.WithShortlist(20))
	third, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := third.Run(context.Background(), []Job{other})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Stage{StageSyntaxValidate, StageMapToUDM}; !slices.Equal(res[0].Ran, want) {
		t.Errorf("other mapper executed %v, want %v", res[0].Ran, want)
	}
	if _, ok := res[0].DiskLoads[StageMapToUDM]; ok {
		t.Error("a mapper with another fingerprint loaded the mirrored mappings")
	}
}

func TestEngineParallelMatchesSequential(t *testing.T) {
	vendors := devmodel.AllVendors
	mkJobs := func() []Job {
		jobs := make([]Job, len(vendors))
		for i, v := range vendors {
			jobs[i], _ = testJob(t, v, 0.02)
		}
		return jobs
	}
	seq, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := seq.Run(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	pres, err := par.Run(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range vendors {
		if sres[i].Vendor != pres[i].Vendor {
			t.Fatalf("result order differs at %d: %s vs %s", i, sres[i].Vendor, pres[i].Vendor)
		}
		if !bytes.Equal(marshalVDM(t, sres[i].VDM), marshalVDM(t, pres[i].VDM)) {
			t.Errorf("%s: parallel VDM differs from sequential", vendors[i])
		}
	}
}

// TestEngineCancellation cancels the run from inside the correction
// callback: the derivation stage must never execute, the job must fail
// with context.Canceled, and no worker goroutine may outlive Run.
func TestEngineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	job, _ := testJob(t, devmodel.H3C, 0.02)
	inner := job.Correct
	job.Correct = func(flagged []vdm.InvalidCLI) []Correction {
		cancel() // mid-pipeline: after syntax validation, before derivation
		return inner(flagged)
	}
	eng, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(ctx, []Job{job})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if results[0] != nil {
		t.Errorf("cancelled job produced a result: ran=%v", results[0].Ran)
	}

	// Run returns only after its workers exit; allow the runtime a moment
	// to reap them before comparing.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// A cancelled sibling must not poison the store: re-running with a live
// context executes the uncached stages instead of serving partial
// artifacts.
func TestEngineNoPartialArtifactCached(t *testing.T) {
	store := NewMemStore()
	ctx, cancel := context.WithCancel(context.Background())
	job, _ := testJob(t, devmodel.Nokia, 0.02)
	inner := job.Correct
	job.Correct = func(flagged []vdm.InvalidCLI) []Correction {
		cancel()
		return inner(flagged)
	}
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, []Job{job}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	job.Correct = inner
	res, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	ran := map[Stage]bool{}
	for _, st := range res[0].Ran {
		ran[st] = true
	}
	if !ran[StageDeriveHierarchy] {
		t.Errorf("derivation not re-run after cancellation: ran=%v skipped=%v", res[0].Ran, res[0].Skipped)
	}
	if len(res[0].VDM.InvalidCLIs) != 0 {
		t.Errorf("corrections lost: %v", res[0].VDM.InvalidCLIs)
	}
}

func TestEngineRejectedCorrectionFailsJob(t *testing.T) {
	job, _ := testJob(t, devmodel.H3C, 0.02)
	job.Correct = func([]vdm.InvalidCLI) []Correction {
		return []Correction{{Corpus: -5, CLI: "nope"}}
	}
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(context.Background(), []Job{job})
	if err == nil {
		t.Fatal("out-of-range correction accepted")
	}
	if results[0] != nil {
		t.Error("failed job produced a result")
	}
}

func TestSummarize(t *testing.T) {
	results := []*JobResult{
		{Ran: []Stage{StageParse, StageSyntaxValidate}},
		nil, // failed job
		{Ran: []Stage{StageParse}, Skipped: []Stage{StageSyntaxValidate}},
	}
	s := Summarize(results, 2*time.Second)
	if s.Jobs != 2 {
		t.Errorf("Jobs = %d", s.Jobs)
	}
	if s.Runs() != 3 || s.Skips() != 1 {
		t.Errorf("Runs = %d, Skips = %d", s.Runs(), s.Skips())
	}
	if s.StageRuns[StageParse] != 2 || s.StageSkips[StageSyntaxValidate] != 1 {
		t.Errorf("per-stage counts: %+v", s)
	}
}

// TestRunStatsStringStageOrder pins String to execution order: empirical
// runs after parse, so it is listed after parse, although it sorts first.
func TestRunStatsStringStageOrder(t *testing.T) {
	s := Summarize([]*JobResult{
		{Ran: []Stage{StageParse, StageEmpiricalValidate, StageMapToUDM}, Skipped: []Stage{StageDeriveHierarchy}},
	}, 1500*time.Millisecond)
	want := "jobs=1 ran/total: [parse=1/1 hierarchy=0/1 empirical=1/1 map_to_udm=1/1] wall=1.5s"
	if got := s.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// switchExec injects a transport failure on every call while broken.
type switchExec struct {
	inner  empirical.Executor
	broken bool
}

func (s *switchExec) Exec(line string) (device.Response, error) {
	if s.broken {
		return device.Response{}, errors.New("connection reset by peer")
	}
	return s.inner.Exec(line)
}

// liveJob extends a testJob with a live-testing device whose transport
// the test can break and heal.
func liveJob(t *testing.T, v devmodel.Vendor) (Job, *switchExec) {
	t.Helper()
	job, m := testJob(t, v, 0.02)
	dev, err := device.New(m)
	if err != nil {
		t.Fatal(err)
	}
	sw := &switchExec{inner: empirical.SessionExecutor(dev.NewSession())}
	job.Exec = sw
	job.ShowCmd = dev.ShowConfigCommand()
	job.Seed = 7
	return job, sw
}

// TestEngineNeverCachesLiveTest: a live report records the device at one
// moment, so live_test executes on every job that asks for it and leaves
// nothing in the store. A run against a broken device degrades; once the
// device heals, the next run re-tests it and is complete.
func TestEngineNeverCachesLiveTest(t *testing.T) {
	job, sw := liveJob(t, devmodel.H3C)
	store := NewMemStore()
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	entries := -1
	for run, broken := range []bool{true, false, false} {
		sw.broken = broken
		res, err := eng.Run(context.Background(), []Job{job})
		if err != nil {
			t.Fatalf("run %d: %v", run+1, err)
		}
		jr := res[0]
		if !slices.Contains(jr.Ran, StageLiveTest) || slices.Contains(jr.Skipped, StageLiveTest) {
			t.Fatalf("run %d: live_test not executed (ran=%v skipped=%v)", run+1, jr.Ran, jr.Skipped)
		}
		if _, ok := jr.Keys[StageLiveTest]; ok {
			t.Errorf("run %d: live_test has an artifact key", run+1)
		}
		if broken {
			if !jr.Live.Degraded || jr.DegradedStages[StageLiveTest] != empirical.DegradedExchangeBudget {
				t.Fatalf("run %d: degraded stages = %v, live = %+v", run+1, jr.DegradedStages, jr.Live)
			}
		} else {
			if jr.Live.Degraded || jr.Degraded() {
				t.Fatalf("run %d: healed device still degraded: %v", run+1, jr.DegradedStages)
			}
			if jr.Live.Verified == 0 {
				t.Fatalf("run %d: healed run verified nothing", run+1)
			}
		}
		if entries >= 0 && store.Len() != entries {
			t.Errorf("run %d: store holds %d artifacts, %d after the previous run", run+1, store.Len(), entries)
		}
		entries = store.Len()
	}
}
