// Package pipeline is the staged assimilation engine: the paper's explicit
// workflow — Parser (§4) → formal syntax validation (§5.1) → hierarchy
// derivation (§5.2) → empirical validation and live testing (§5.3) →
// VDM-UDM mapping (§6) — as a first-class dataflow instead of ad-hoc
// wiring. Each stage is typed, keyed by a hash of its version and its
// inputs chained along the stage graph, cached in an artifact store
// (in-memory, optionally mirrored on disk), wrapped in telemetry
// spans/counters/timers, and guarded by the run's context so cancellation
// stops the pipeline at the next stage boundary. Live testing is the exception to the caching: its report
// records a device at one moment, so it is neither keyed nor stored. A
// bounded worker pool assimilates multiple vendors concurrently;
// per-vendor results are deterministic and independent of the worker
// count.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"nassim/internal/configgen"
	"nassim/internal/corpus"
	"nassim/internal/empirical"
	"nassim/internal/hierarchy"
	"nassim/internal/mapper"
	"nassim/internal/parser"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// Stage names one pipeline stage. The string values double as the stage
// labels in telemetry (metric labels, the manifest, the stage.* rows of
// BENCH_*.json).
type Stage string

// The stage graph, in execution order. Parse through DeriveHierarchy run
// for every job; the remaining stages run when the job supplies their
// inputs (config files, a device executor, a mapper).
const (
	StageParse             Stage = "parse"
	StageSyntaxValidate    Stage = "syntax_cgm"
	StageDeriveHierarchy   Stage = "hierarchy"
	StageEmpiricalValidate Stage = "empirical"
	StageLiveTest          Stage = "live_test"
	StageMapToUDM          Stage = "map_to_udm"
)

// Stages lists the stage graph in execution order.
func Stages() []Stage {
	return []Stage{StageParse, StageSyntaxValidate, StageDeriveHierarchy,
		StageEmpiricalValidate, StageLiveTest, StageMapToUDM}
}

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_pipeline_stage_total", "Pipeline stage executions, by stage and outcome (run, cache_hit).")
	reg.SetHelp("nassim_pipeline_stage_seconds", "Wall time of executed (non-cached) pipeline stages.")
	reg.SetHelp("nassim_pipeline_jobs_total", "Per-vendor pipeline jobs, by result (ok, error).")
	reg.SetHelp("nassim_pipeline_degraded_stages_total", "Pipeline stages that produced a degraded artifact, by stage.")
}

// Correction is one expert fix of a flagged CLI template (§5.1).
type Correction struct {
	Corpus int
	CLI    string
}

// ApplyCorrections replaces the flagged primary CLI of each addressed
// corpus in place, preserving the corpus's non-flagged sibling CLIs. It
// returns how many corrections were applied; out-of-range corpus indices
// are rejected and reported in the error (the valid ones still apply).
func ApplyCorrections(corpora []corpus.Corpus, fixes []Correction) (int, error) {
	applied := 0
	var rejected []int
	for _, f := range fixes {
		if f.Corpus < 0 || f.Corpus >= len(corpora) {
			rejected = append(rejected, f.Corpus)
			continue
		}
		c := &corpora[f.Corpus]
		if len(c.CLIs) == 0 {
			c.CLIs = []string{f.CLI}
		} else {
			c.CLIs[0] = f.CLI
		}
		applied++
	}
	if len(rejected) > 0 {
		return applied, fmt.Errorf("pipeline: %d correction(s) rejected, corpus indices out of range [0,%d): %v",
			len(rejected), len(corpora), rejected)
	}
	return applied, nil
}

// correctedCopy applies fixes to a copy of corpora, leaving the (cached)
// input untouched. Only the CLIs slices of corrected corpora are cloned;
// everything else is shared structurally and must stay read-only.
func correctedCopy(corpora []corpus.Corpus, fixes []Correction) ([]corpus.Corpus, int, error) {
	if len(fixes) == 0 {
		return corpora, 0, nil
	}
	out := make([]corpus.Corpus, len(corpora))
	copy(out, corpora)
	for _, f := range fixes {
		if f.Corpus >= 0 && f.Corpus < len(out) {
			out[f.Corpus].CLIs = append([]string(nil), out[f.Corpus].CLIs...)
		}
	}
	applied, err := ApplyCorrections(out, fixes)
	return out, applied, err
}

// MapSpec enables the MapToUDM stage: recommend UDM attributes for VDM
// parameters through a ready mapper.
type MapSpec struct {
	Mapper *mapper.Mapper
	// Params selects the parameters to map; nil maps the VDM's parameters
	// in order, capped by Limit.
	Params []vdm.Parameter
	Limit  int // cap when Params is nil (0 = all)
	TopK   int // recommendations per parameter (default 10)
}

// Mapping is one mapped parameter of the MapToUDM stage.
type Mapping struct {
	Param           vdm.Parameter
	Recommendations []mapper.Recommendation
}

// Job describes one vendor assimilation for the engine.
type Job struct {
	Vendor string
	Pages  []parser.Page
	// Correct maps the syntax validator's flagged templates to expert
	// fixes (§5.1's targeted interventions); nil skips correction.
	Correct func(flagged []vdm.InvalidCLI) []Correction
	// ConfigFiles enables the EmpiricalValidate stage (Figure 8).
	ConfigFiles []configgen.File
	// Exec + ShowCmd enable the LiveTest stage (§5.3 generated-instance
	// testing against a device, empirical.TestUnusedCommands with
	// PathsPerCommand and Seed). Its report records the device at one
	// moment, so the stage runs on every job that sets Exec and its report
	// is never stored. A device whose transport keeps failing degrades the
	// report (see JobResult.DegradedStages) instead of failing the job.
	Exec            empirical.Executor
	ShowCmd         string
	PathsPerCommand int
	Seed            uint64
	// Map enables the MapToUDM stage.
	Map *MapSpec
}

// JobResult carries every artifact one vendor's pipeline run produced.
// Artifacts may come from the cache and are shared by reference: treat
// them as read-only.
type JobResult struct {
	Vendor       string
	Corpora      []corpus.Corpus  // parsed, pre-correction (the cached parse artifact)
	Hierarchy    []hierarchy.Edge // explicit view edges, when published
	Completeness *corpus.Report
	// Invalid lists the CLI templates formal syntax validation flagged
	// before expert correction (Table 4's "#Invalid CLI Commands").
	Invalid            []vdm.InvalidCLI
	CorrectionsApplied int
	VDM                *vdm.VDM
	Derive             *hierarchy.Report
	Empirical          *empirical.Report // nil unless the stage ran
	Live               *empirical.LiveReport
	Mapping            []Mapping
	// Ran and Skipped record, in execution order, which stages executed
	// and which were satisfied from the artifact store.
	Ran     []Stage
	Skipped []Stage
	// Keys maps every cached stage the job touched (run or
	// cache-satisfied) to its content-hash artifact key; live_test has no
	// key, because its report is never stored. Callers that later learn an
	// artifact is stale — the reconciler detecting firmware skew on a
	// device the VDM was validated against — pass these to
	// Engine.Invalidate to force exactly that stage (and, through key
	// chaining, nothing else) to re-run.
	Keys map[Stage]string
	// StageElapsed is the wall time of each executed stage (cache-satisfied
	// stages have no entry: skipped work is skipped). execStage measures it
	// once, inside the stage hook's bracket; the stage histogram and every
	// stage-time report read this value.
	StageElapsed map[Stage]time.Duration
	// Pools reports the intra-stage worker-pool utilization of executed
	// stages that fan out (Parse over manual pages, EmpiricalValidate over
	// config files).
	Pools map[Stage]telemetry.PoolStats
	// DegradedStages maps each stage that produced a degraded (partial)
	// artifact to its machine-readable reason. Only live_test degrades,
	// and its reports are never cached, so the next job re-tests.
	DegradedStages map[Stage]string
	// PagesHash and ConfigHash are the content hashes of the job's inputs
	// — the same hashes the artifact cache keys chain from — so a run
	// manifest can name exactly what was assimilated.
	PagesHash  string
	ConfigHash string
	// DiskLoads records, per stage satisfied from the disk mirror, which
	// codec decoded the artifact and how many bytes it mapped. Warm runs
	// over the same cache report identical loads; the run manifest uses
	// this to show the warm path decoding binary artifacts, not JSON.
	DiskLoads map[Stage]ArtifactLoad
}

// ArtifactLoad describes one artifact decoded from the disk mirror.
type ArtifactLoad struct {
	Codec string `json:"codec"` // the stage's version, which is also the artifact's schema tag
	Bytes int64  `json:"bytes"` // serialized artifact size
}

// Degraded reports whether any stage produced a degraded artifact.
func (jr *JobResult) Degraded() bool { return len(jr.DegradedStages) > 0 }

// notePool records an executed stage's intra-stage pool utilization. It is
// called from inside the stage's own execution closure, so it never races
// with other stages of the same job.
func (jr *JobResult) notePool(stage Stage, ps telemetry.PoolStats) {
	if jr.Pools == nil {
		jr.Pools = map[Stage]telemetry.PoolStats{}
	}
	jr.Pools[stage] = ps
}

// RunStats aggregates stage outcomes over one engine run.
type RunStats struct {
	Jobs       int
	StageRuns  map[Stage]int
	StageSkips map[Stage]int
	Wall       time.Duration
}

// Runs sums executed stages.
func (s RunStats) Runs() int { return sumStages(s.StageRuns) }

// Skips sums cache-satisfied stages.
func (s RunStats) Skips() int { return sumStages(s.StageSkips) }

func sumStages(m map[Stage]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// String renders the stats in stage order.
func (s RunStats) String() string {
	parts := make([]string, 0, len(s.StageRuns)+len(s.StageSkips))
	for _, st := range Stages() {
		r, k := s.StageRuns[st], s.StageSkips[st]
		if r == 0 && k == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%d/%d", st, r, r+k))
	}
	return fmt.Sprintf("jobs=%d ran/total: %v wall=%v", s.Jobs, parts, s.Wall.Round(time.Millisecond))
}

// Config tunes an Engine.
type Config struct {
	// Workers bounds per-vendor parallelism (<=1 runs sequentially).
	Workers int
	// Store is the artifact cache; nil gets a fresh MemStore. Share one
	// store across runs to make warm re-runs skip unchanged stages.
	Store *MemStore
	// CacheDir, when set, mirrors the artifacts of the four stages with a
	// codec (parse, hierarchy, empirical, map_to_udm) on disk so later
	// processes can warm-start. syntax_cgm stays in memory, so a restart
	// still executes one stage per job and fires its StageHook; that stage
	// only parses, and the CGMs load with the hierarchy artifact. live_test
	// is never stored: it records a device at one moment.
	CacheDir string
	// StageHook, when set, observes actual stage executions (cache hits
	// never fire it). It is called immediately before each execution;
	// the returned func — which may be nil — runs when the execution
	// finishes. The obsreport flight recorder's pprof captures and the
	// serving daemon's progress stream attach here; a stage's wall time
	// is JobResult.StageElapsed, measured inside this bracket.
	StageHook func(vendor string, stage Stage) func()
}

// Engine runs assimilation jobs through the staged pipeline.
type Engine struct {
	store   *MemStore
	disk    *DiskStore
	workers int
	hook    func(vendor string, stage Stage) func()
}

// New builds an engine from a config.
func New(cfg Config) (*Engine, error) {
	e := &Engine{store: cfg.Store, workers: cfg.Workers, hook: cfg.StageHook}
	if e.store == nil {
		e.store = NewMemStore()
	}
	if cfg.CacheDir != "" {
		d, err := NewDiskStore(cfg.CacheDir)
		if err != nil {
			return nil, err
		}
		e.disk = d
	}
	return e, nil
}

// Run assimilates every job, at most Workers concurrently, and returns
// per-job results in input order. A failed or cancelled job leaves a nil
// result at its position and contributes to the joined error; sibling jobs
// are unaffected. Run never leaks goroutines: it returns only after every
// worker has exited.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]*JobResult, error) {
	if len(jobs) == 0 {
		return nil, nil
	}
	results := make([]*JobResult, len(jobs))
	errs := make([]error, len(jobs))
	// RunPool raises fewer than 1 worker to 1 (sequential on this goroutine).
	telemetry.RunPool(e.workers, len(jobs), func(_, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("pipeline: %s: %w", jobs[i].Vendor, err)
			return
		}
		results[i], errs[i] = e.runJob(ctx, &jobs[i])
	})
	for i := range jobs {
		outcome := "ok"
		if errs[i] != nil {
			outcome = "error"
		}
		telemetry.GetCounter("nassim_pipeline_jobs_total", "result", outcome).Inc()
	}
	return results, errors.Join(errs...)
}

// Summarize aggregates stage outcomes over a run's results (nil entries —
// failed jobs — are skipped).
func Summarize(results []*JobResult, wall time.Duration) RunStats {
	s := RunStats{StageRuns: map[Stage]int{}, StageSkips: map[Stage]int{}, Wall: wall}
	for _, r := range results {
		if r == nil {
			continue
		}
		s.Jobs++
		for _, st := range r.Ran {
			s.StageRuns[st]++
		}
		for _, st := range r.Skipped {
			s.StageSkips[st]++
		}
	}
	return s
}

// parseArtifact is the cached output of StageParse.
type parseArtifact struct {
	Corpora      []corpus.Corpus
	Hierarchy    []hierarchy.Edge
	Completeness *corpus.Report
}

// deriveArtifact is the cached output of StageDeriveHierarchy. The VDM is
// persisted through its own Marshal (the CGM index is rebuilt on load).
type deriveArtifact struct {
	VDM    *vdm.VDM
	Report *hierarchy.Report
}

// runStage executes one stage unless its artifact is already cached. It
// checks the context at the stage boundary, consults the memory store then
// the disk mirror, and on a miss runs the stage through execStage and
// records the artifact in both.
func runStage[T any](ctx context.Context, e *Engine, jr *JobResult, stage Stage,
	key string, disk Codec[T], fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("pipeline: %s/%s: %w", jr.Vendor, stage, err)
	}
	if v, ok := e.store.Get(key); ok {
		if t, ok := v.(T); ok {
			e.noteSkip(jr, stage)
			return t, nil
		}
	}
	if disk != nil && e.disk != nil {
		if data, ok := e.disk.GetBytes(stage, key); ok {
			if t, err := disk.Decode(data); err == nil {
				jr.noteDiskLoad(stage, len(data))
				e.store.Put(key, t)
				e.noteSkip(jr, stage)
				return t, nil
			} else {
				// Truncated, corrupted, or forged artifacts are cache misses,
				// not errors: the stage re-runs and overwrites them.
				noteDiskLoadError(stage, err)
			}
		}
	}
	t, err := execStage(ctx, e, jr, stage, fn)
	if err != nil {
		return zero, err
	}
	e.store.Put(key, t)
	if disk != nil && e.disk != nil {
		if data, err := disk.Encode(t); err == nil {
			_ = e.disk.PutBytes(stage, key, data) // best-effort mirror
		}
	}
	return t, nil
}

// execStage executes one stage: it checks the context, brackets fn with
// the stage hook and a telemetry span, times it, and records the run. An
// artifact produced under a cancelled context is discarded.
func execStage[T any](ctx context.Context, e *Engine, jr *JobResult, stage Stage,
	fn func(context.Context) (T, error)) (T, error) {
	var zero T
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("pipeline: %s/%s: %w", jr.Vendor, stage, err)
	}
	var unhook func()
	if e.hook != nil {
		unhook = e.hook(jr.Vendor, stage)
	}
	sctx, span := telemetry.Span(ctx, "pipeline."+string(stage), "vendor", jr.Vendor)
	start := time.Now()
	t, err := fn(sctx)
	elapsed := time.Since(start)
	span.End()
	if unhook != nil {
		unhook()
	}
	if err == nil {
		// Stages return partial output when cancelled mid-loop; surface
		// the cancellation instead of keeping a truncated artifact.
		err = ctx.Err()
	}
	if err != nil {
		return zero, fmt.Errorf("pipeline: %s/%s: %w", jr.Vendor, stage, err)
	}
	e.noteRun(jr, stage, elapsed)
	return t, nil
}

func (e *Engine) noteRun(jr *JobResult, stage Stage, elapsed time.Duration) {
	jr.Ran = append(jr.Ran, stage)
	if jr.StageElapsed == nil {
		jr.StageElapsed = map[Stage]time.Duration{}
	}
	jr.StageElapsed[stage] = elapsed
	telemetry.GetCounter("nassim_pipeline_stage_total", "stage", string(stage), "outcome", "run").Inc()
	telemetry.GetHistogram("nassim_pipeline_stage_seconds", nil, "stage", string(stage)).ObserveDuration(elapsed)
}

// noteKey records a stage's artifact key on the result (see JobResult.Keys).
func (jr *JobResult) noteKey(stage Stage, key string) {
	if jr.Keys == nil {
		jr.Keys = map[Stage]string{}
	}
	jr.Keys[stage] = key
}

// Invalidate removes artifacts from the engine's memory store, returning
// how many were present. It is the stage-invalidation hook for callers
// that learn a cached artifact no longer describes the world (drift
// detected against a device the artifact was validated on): deleting one
// stage's key forces exactly that stage to re-run on the next job with the
// same inputs, while every other stage still cache-hits. The disk mirror
// is left untouched: its artifacts are keyed by content, and the memory
// store is the layer consulted first.
func (e *Engine) Invalidate(keys ...string) int {
	n := 0
	for _, k := range keys {
		if e.store.Delete(k) {
			n++
		}
	}
	return n
}

func (e *Engine) noteSkip(jr *JobResult, stage Stage) {
	jr.Skipped = append(jr.Skipped, stage)
	telemetry.GetCounter("nassim_pipeline_stage_total", "stage", string(stage), "outcome", "cache_hit").Inc()
}

// runJob drives one vendor through the stage graph.
func (e *Engine) runJob(ctx context.Context, job *Job) (*JobResult, error) {
	jr := &JobResult{Vendor: job.Vendor}
	log := telemetry.Logger("pipeline")

	pagesKey := hashPages(job.Vendor, job.Pages)
	jr.PagesHash = pagesKey

	// Parse (§4): manual pages -> vendor-independent corpus + TDD report.
	parseKey := Key(StageParse, pagesKey)
	jr.noteKey(StageParse, parseKey)
	pa, err := runStage(ctx, e, jr, StageParse, parseKey, parseCodec,
		func(ctx context.Context) (*parseArtifact, error) {
			p, err := parser.New(job.Vendor)
			if err != nil {
				return nil, err
			}
			res, rep := p.ParseAndValidate(ctx, job.Pages)
			jr.notePool(StageParse, res.Pool)
			edges := make([]hierarchy.Edge, len(res.Hierarchy))
			for i, ed := range res.Hierarchy {
				edges[i] = hierarchy.Edge{Parent: ed.Parent, Child: ed.Child}
			}
			return &parseArtifact{Corpora: res.Corpora, Hierarchy: edges, Completeness: rep}, nil
		})
	if err != nil {
		return nil, err
	}
	jr.Corpora, jr.Hierarchy, jr.Completeness = pa.Corpora, pa.Hierarchy, pa.Completeness

	// SyntaxValidate (§5.1): formal syntax validation of the raw corpora;
	// the flagged templates go to the expert. It only parses: the CGMs are
	// built once, by DeriveHierarchy over the corrected corpora.
	synKey := Key(StageSyntaxValidate, parseKey)
	jr.noteKey(StageSyntaxValidate, synKey)
	invalid, err := runStage(ctx, e, jr, StageSyntaxValidate, synKey, nil,
		func(ctx context.Context) ([]vdm.InvalidCLI, error) {
			return hierarchy.CheckSyntax(ctx, pa.Corpora, nil), nil
		})
	if err != nil {
		return nil, err
	}
	jr.Invalid = invalid

	// Expert correction (not a cached stage: the fixes come from the
	// caller and are folded into the derivation key instead).
	var fixes []Correction
	if job.Correct != nil {
		fixes = job.Correct(invalid)
	}
	corrected, applied, err := correctedCopy(pa.Corpora, fixes)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %s: %w", job.Vendor, err)
	}
	jr.CorrectionsApplied = applied

	// DeriveHierarchy (§5.2): rebuild over the corrected corpora and
	// derive the view hierarchy — the validated VDM.
	fixParts := make([]string, 0, 2*len(fixes))
	for _, f := range fixes {
		fixParts = append(fixParts, strconv.Itoa(f.Corpus), f.CLI)
	}
	deriveKey := Key(StageDeriveHierarchy, synKey, HashStrings(fixParts...))
	jr.noteKey(StageDeriveHierarchy, deriveKey)
	da, err := runStage(ctx, e, jr, StageDeriveHierarchy, deriveKey, deriveCodec,
		func(ctx context.Context) (*deriveArtifact, error) {
			v, rep := hierarchy.Derive(ctx, job.Vendor, corrected, pa.Hierarchy, nil)
			return &deriveArtifact{VDM: v, Report: rep}, nil
		})
	if err != nil {
		return nil, err
	}
	jr.VDM, jr.Derive = da.VDM, da.Report

	// EmpiricalValidate (§5.3, Figure 8): optional.
	if len(job.ConfigFiles) > 0 {
		jr.ConfigHash = hashFiles(job.ConfigFiles)
		empKey := Key(StageEmpiricalValidate, deriveKey, jr.ConfigHash)
		jr.noteKey(StageEmpiricalValidate, empKey)
		rep, err := runStage(ctx, e, jr, StageEmpiricalValidate, empKey,
			empiricalCodec{corpora: len(da.VDM.Corpora)},
			func(ctx context.Context) (*empirical.Report, error) {
				r := empirical.ValidateConfigs(ctx, da.VDM, job.ConfigFiles)
				jr.notePool(StageEmpiricalValidate, r.Pool)
				return r, nil
			})
		if err != nil {
			return nil, err
		}
		jr.Empirical = rep
	}

	// LiveTest (§5.3): optional; exercises commands unused by the
	// empirical corpus against a device. The report records the device at
	// one moment, so the stage runs every time and is never stored.
	if job.Exec != nil {
		var used map[int]bool
		if jr.Empirical != nil {
			used = jr.Empirical.UsedCorpora
		}
		live, err := execStage(ctx, e, jr, StageLiveTest,
			func(ctx context.Context) (*empirical.LiveReport, error) {
				return empirical.TestUnusedCommands(ctx, da.VDM, used, job.Exec, job.ShowCmd,
					job.PathsPerCommand, job.Seed)
			})
		if err != nil {
			return nil, err
		}
		if live.Degraded {
			jr.DegradedStages = map[Stage]string{StageLiveTest: live.DegradedReason}
			telemetry.GetCounter("nassim_pipeline_degraded_stages_total", "stage", string(StageLiveTest)).Inc()
			log.Warn("stage degraded", "vendor", job.Vendor, "stage", string(StageLiveTest),
				"reason", live.DegradedReason)
		}
		jr.Live = live
	}

	// MapToUDM (§6): optional; recommend UDM attributes per parameter.
	if job.Map != nil && job.Map.Mapper != nil {
		spec := job.Map
		params := spec.Params
		if params == nil {
			params = da.VDM.Parameters()
			if spec.Limit > 0 && len(params) > spec.Limit {
				params = params[:spec.Limit]
			}
		}
		topK := spec.TopK
		if topK <= 0 {
			topK = 10
		}
		paramParts := make([]string, 0, 2*len(params))
		for _, p := range params {
			paramParts = append(paramParts, strconv.Itoa(p.Corpus), p.Name)
		}
		// Keyed on the mapper's content, not its name: a mapper retrained
		// in place (§3.2's improvement loop) keeps its name but must not
		// get back the answers of its earlier state.
		mapKey := Key(StageMapToUDM, deriveKey, spec.Mapper.Fingerprint(),
			strconv.Itoa(topK), HashStrings(paramParts...))
		jr.noteKey(StageMapToUDM, mapKey)
		mappings, err := runStage(ctx, e, jr, StageMapToUDM, mapKey,
			mapCodec{params: params, attrs: spec.Mapper.Attrs(), topK: topK},
			func(ctx context.Context) ([]Mapping, error) {
				pcs := make([]mapper.ParamContext, len(params))
				for i, p := range params {
					pcs[i] = mapper.ExtractContext(da.VDM, p)
				}
				// MapAll fans the batch across the mapper's worker pool with
				// order-stable output and stops between parameters on
				// cancellation.
				recs, err := spec.Mapper.MapAll(ctx, pcs, topK)
				if err != nil {
					return nil, err
				}
				out := make([]Mapping, len(params))
				for i, p := range params {
					out[i] = Mapping{Param: p, Recommendations: recs[i]}
				}
				return out, nil
			})
		if err != nil {
			return nil, err
		}
		jr.Mapping = mappings
	}

	log.Debug("assimilated vendor",
		"vendor", job.Vendor, "corpora", len(jr.Corpora), "invalid", len(jr.Invalid),
		"corrected", jr.CorrectionsApplied, "stages_run", len(jr.Ran), "stages_skipped", len(jr.Skipped))
	return jr, nil
}

// hashPages is HashStrings over the vendor, then each page's URL and HTML,
// written straight into the hash.
func hashPages(vendor string, pages []parser.Page) string {
	f := newFramedHash()
	f.write(vendor)
	for _, p := range pages {
		f.write(p.URL)
		f.write(p.HTML)
	}
	return f.sum()
}

// hashFiles frames each file as its name, its line count and its lines, so
// a line that looks like a file name cannot stand in for a file boundary.
// It is HashStrings over that sequence, written straight into the hash.
func hashFiles(files []configgen.File) string {
	f := newFramedHash()
	for _, file := range files {
		f.write(file.Name)
		f.write(strconv.Itoa(len(file.Lines)))
		for _, l := range file.Lines {
			f.write(l)
		}
	}
	return f.sum()
}

// sortedUsed lists the corpus indices marked used, ascending.
func sortedUsed(used map[int]bool) []int {
	keys := make([]int, 0, len(used))
	for k, v := range used {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}
