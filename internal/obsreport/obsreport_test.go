package obsreport

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
	"nassim/internal/parser"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// testJob renders a scaled synthetic manual with ground-truth expert
// corrections, mirroring the pipeline package's fixture.
func testJob(t *testing.T, v devmodel.Vendor, scale float64) pipeline.Job {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(scale))
	man := manualgen.Render(m)
	pages := make([]parser.Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = parser.Page{URL: pg.URL, HTML: pg.HTML}
	}
	return pipeline.Job{
		Vendor: string(v),
		Pages:  pages,
		Correct: func(flagged []vdm.InvalidCLI) []pipeline.Correction {
			var out []pipeline.Correction
			for _, ic := range flagged {
				if ic.Corpus >= 0 && ic.Corpus < len(m.Commands) {
					out = append(out, pipeline.Correction{Corpus: ic.Corpus, CLI: m.Commands[ic.Corpus].Template})
				}
			}
			return out
		},
	}
}

func runOnce(t *testing.T, eng *pipeline.Engine, jobs []pipeline.Job, info RunInfo) *Manifest {
	t.Helper()
	col := NewCollector()
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return col.Build(info, results)
}

func TestManifestBuildWriteLoad(t *testing.T) {
	eng, err := pipeline.New(pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []pipeline.Job{testJob(t, devmodel.H3C, 0.02), testJob(t, devmodel.Cisco, 0.02)}
	info := RunInfo{Vendors: []string{jobs[0].Vendor, jobs[1].Vendor}, Workers: 2, Scale: 0.02}
	m := runOnce(t, eng, jobs, info)

	if m.Schema != ManifestSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	if len(m.RunID) != 64 {
		t.Fatalf("run_id = %q, want 64 hex chars", m.RunID)
	}
	if len(m.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(m.Jobs))
	}
	for _, j := range m.Jobs {
		if j.PagesHash == "" {
			t.Errorf("%s: empty pages hash", j.Vendor)
		}
		if len(j.Stages) == 0 {
			t.Errorf("%s: no stage outcomes", j.Vendor)
		}
		for _, s := range j.Stages {
			if s.Outcome != "run" {
				t.Errorf("%s/%s: cold run outcome = %q", j.Vendor, s.Stage, s.Outcome)
			}
		}
		if j.Corpora == 0 || j.Views == 0 {
			t.Errorf("%s: corpora=%d views=%d", j.Vendor, j.Corpora, j.Views)
		}
	}
	if len(m.Cache) == 0 {
		t.Error("no cache stats")
	}
	for _, c := range m.Cache {
		if c.CacheHits != 0 {
			t.Errorf("cold run %s: cache hits = %d", c.Stage, c.CacheHits)
		}
	}
	if m.Timing.WallNS <= 0 {
		t.Errorf("wall = %d", m.Timing.WallNS)
	}
	if len(m.Timing.Stages) == 0 {
		t.Error("no per-stage timing")
	}
	if len(m.Timing.Pools) == 0 {
		t.Error("no pool timing (parse stage fans out)")
	}
	if m.ArtifactFormat != pipeline.ArtifactFormat {
		t.Errorf("artifact format = %q, want %q", m.ArtifactFormat, pipeline.ArtifactFormat)
	}
	for _, j := range m.Jobs {
		if len(j.Artifacts) != 0 {
			t.Errorf("%s: cold run without disk mirror recorded artifact loads: %v", j.Vendor, j.Artifacts)
		}
	}
	// Every recorded pool yields a derived utilization entry under the
	// telemetry key shared with BENCH_frontend.json.
	for _, p := range m.Timing.Pools {
		key := telemetry.UtilizationKey(p.Stage, p.Workers)
		u, ok := m.Timing.Derived[key]
		if !ok {
			t.Errorf("no derived entry %q for pooled stage", key)
		} else if u <= 0 || u > 1.01 {
			t.Errorf("derived %s = %v, want (0,1]", key, u)
		}
	}
	if len(m.MetricsDelta) == 0 {
		t.Error("no metrics delta (stage counters moved)")
	}
	for k := range m.MetricsDelta {
		if timingMetric(k) {
			t.Errorf("duration-valued metric %q leaked into deterministic delta", k)
		}
	}

	path := filepath.Join(t.TempDir(), "runs", "manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != m.RunID || len(got.Jobs) != len(m.Jobs) {
		t.Fatalf("round trip mismatch: %q vs %q", got.RunID, m.RunID)
	}
	if got.Jobs[0].PagesHash != m.Jobs[0].PagesHash {
		t.Error("round trip lost input hashes")
	}

	if s := m.Summary(); !strings.Contains(s, "2 vendor(s)") {
		t.Errorf("summary = %q", s)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("want schema error")
	}
}

// TestWarmRunDeterminism is the acceptance check: repeated warm runs over
// the same store produce byte-identical manifests outside the Timing block.
func TestWarmRunDeterminism(t *testing.T) {
	eng, err := pipeline.New(pipeline.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []pipeline.Job{testJob(t, devmodel.H3C, 0.02), testJob(t, devmodel.Huawei, 0.02)}
	info := RunInfo{Vendors: []string{jobs[0].Vendor, jobs[1].Vendor}, Workers: 2, Scale: 0.02}

	cold := runOnce(t, eng, jobs, info)
	warm1 := runOnce(t, eng, jobs, info)
	warm2 := runOnce(t, eng, jobs, info)

	if cold.RunID != warm1.RunID || warm1.RunID != warm2.RunID {
		t.Fatalf("run IDs diverge: %s %s %s", cold.RunID[:8], warm1.RunID[:8], warm2.RunID[:8])
	}
	b1, err := warm1.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := warm2.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm manifests differ outside timing:\n--- warm1\n%s\n--- warm2\n%s", b1, b2)
	}
	// The canonical bytes really exclude timing: the raw documents differ.
	r1, _ := warm1.MarshalIndent()
	r2, _ := warm2.MarshalIndent()
	if warm1.Timing.StartedAt.Equal(warm2.Timing.StartedAt) {
		t.Error("warm runs share a start timestamp")
	}
	_ = r1
	_ = r2

	for _, j := range warm1.Jobs {
		for _, s := range j.Stages {
			if s.Outcome != "cache_hit" {
				t.Errorf("warm %s/%s outcome = %q", j.Vendor, s.Stage, s.Outcome)
			}
		}
	}
	for _, c := range warm1.Cache {
		if c.Runs != 0 {
			t.Errorf("warm run executed %s %d time(s)", c.Stage, c.Runs)
		}
	}
	// Warm runs skip every stage, so no stage wall time or pool stats.
	if len(warm1.Timing.Stages) != 0 || len(warm1.Timing.Pools) != 0 {
		t.Errorf("warm timing not empty: stages=%v pools=%v", warm1.Timing.Stages, warm1.Timing.Pools)
	}
}

// TestManifestArtifactsBlock: a fresh engine warm-starting from a disk
// mirror records, per job, which stages it satisfied by decoding stored
// artifacts — binary codecs, real byte counts — and two such warm runs
// agree byte-for-byte on the block (it is deterministic manifest body).
func TestManifestArtifactsBlock(t *testing.T) {
	dir := t.TempDir()
	jobs := []pipeline.Job{testJob(t, devmodel.Cisco, 0.02)}
	info := RunInfo{Vendors: []string{jobs[0].Vendor}, Scale: 0.02}

	cold, err := pipeline.New(pipeline.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mCold := runOnce(t, cold, jobs, info)
	for _, j := range mCold.Jobs {
		if len(j.Artifacts) != 0 {
			t.Errorf("cold run recorded artifact loads: %v", j.Artifacts)
		}
	}

	warmRun := func() *Manifest {
		eng, err := pipeline.New(pipeline.Config{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return runOnce(t, eng, jobs, info)
	}
	warm1, warm2 := warmRun(), warmRun()
	arts := warm1.Jobs[0].Artifacts
	if len(arts) == 0 {
		t.Fatal("warm run from disk mirror recorded no artifact loads")
	}
	stageVersion := regexp.MustCompile(`^[a-z_]+/v[0-9]+$`)
	for _, a := range arts {
		if !stageVersion.MatchString(a.Codec) {
			t.Errorf("stage %s decoded via %q, want its stage version (name/vN)", a.Stage, a.Codec)
		}
		if a.Bytes <= 0 {
			t.Errorf("stage %s: %d bytes", a.Stage, a.Bytes)
		}
	}
	b1, err := warm1.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := warm2.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm artifact blocks differ:\n--- warm1\n%s\n--- warm2\n%s", b1, b2)
	}
}

func TestTimingMetricClassification(t *testing.T) {
	cases := map[string]bool{
		"nassim_pipeline_stage_seconds_sum{stage=\"parse\"}":   true,
		"nassim_pipeline_stage_seconds_avg{stage=\"parse\"}":   true,
		"nassim_pipeline_stage_seconds_count{stage=\"parse\"}": false,
		"nassim_parse_worker_busy_seconds_sum":                 true,
		"nassim_pipeline_stage_total{outcome=\"run\"}":         false,
		"nassim_trace_spans_dropped_total":                     false,
		"nassim_corpus_size_sum":                               false,
		// Shared-cache hit totals race across concurrent workers.
		"nassim_cgm_graph_cache_hits_total":    true,
		"nassim_syntax_parse_cache_hits_total": true,
		"nassim_empirical_memo_hits_total":     true,
	}
	for k, want := range cases {
		if got := timingMetric(k); got != want {
			t.Errorf("timingMetric(%q) = %v, want %v", k, got, want)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	spans := []telemetry.SpanRecord{
		{ID: 1, Name: "pipeline.parse", Start: base, DurationNS: 100e6,
			Attrs: map[string]string{"vendor": "h3c"}},
		{ID: 2, Parent: 1, Name: "parse.page", Start: base.Add(10 * time.Millisecond), DurationNS: 20e6},
		{ID: 3, Name: "pipeline.parse", Start: base.Add(30 * time.Millisecond), DurationNS: 100e6,
			Attrs: map[string]string{"vendor": "cisco"}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string            `json:"name"`
			Phase string            `json:"ph"`
			TS    int64             `json:"ts"`
			Dur   int64             `json:"dur"`
			TID   int               `json:"tid"`
			Args  map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	byID := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			t.Errorf("phase = %q", ev.Phase)
		}
		byID[ev.Args["span_id"]] = ev.TID
	}
	// Span 2 nests inside span 1: same lane. Span 3 overlaps span 1
	// without nesting: different lane.
	if byID["2"] != byID["1"] {
		t.Errorf("nested span on lane %d, parent on %d", byID["2"], byID["1"])
	}
	if byID["3"] == byID["1"] {
		t.Errorf("overlapping spans share lane %d", byID["3"])
	}
	// Attrs survived the copy and the source map was not mutated.
	if spans[0].Attrs["span_id"] != "" {
		t.Error("export mutated the source span's attrs")
	}

	// Empty input still yields a loadable document.
	buf.Reset()
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Errorf("empty export = %s", buf.String())
	}
}

func TestFlightRecorderCaptures(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir)
	eng, err := pipeline.New(pipeline.Config{StageHook: fr.StageHook()})
	if err != nil {
		t.Fatal(err)
	}
	jobs := []pipeline.Job{testJob(t, devmodel.Nokia, 0.02)}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := fr.Err(); err != nil {
		t.Fatal(err)
	}
	caps := fr.Captures()
	if len(caps) == 0 {
		t.Fatal("no captures")
	}
	var cpu, heap int
	for _, p := range caps {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("capture missing: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
		switch {
		case strings.HasPrefix(filepath.Base(p), "cpu-"):
			cpu++
		case strings.HasPrefix(filepath.Base(p), "heap-"):
			heap++
		}
	}
	// Parse through DeriveHierarchy run for every job: three stages, a CPU
	// and heap profile each.
	if cpu < 3 || heap < 3 {
		t.Errorf("cpu=%d heap=%d captures, want >=3 each (files: %v)", cpu, heap, caps)
	}

	// Warm re-run fires no hooks: capture count is unchanged.
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if got := len(fr.Captures()); got != len(caps) {
		t.Errorf("warm run captured %d new profile(s)", got-len(caps))
	}
}
