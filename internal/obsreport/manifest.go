// Package obsreport is the run observatory: it turns one assimilation run
// into a durable, diffable evidence trail. The paper argues for NAssim
// empirically — per-stage accuracy and cost, per vendor (§6) — and this
// package gives every run the machine-checkable counterpart of that
// argument: a schema-versioned manifest (what went in, what each stage
// did, what it cost), a Chrome-trace export of the span ring buffer, and a
// flight recorder that brackets stages with pprof captures.
//
// Manifest determinism contract: every field outside the Timing block is a
// pure function of the run's inputs and options. Repeated warm runs of the
// same inputs therefore produce byte-identical manifests modulo the Timing
// block, which is the only place wall-clock timestamps, durations, CPU
// time, worker busy times, and duration-valued metric deltas may appear.
// CanonicalBytes enforces the contract mechanically and the root-level
// manifest golden test holds the pipeline to it.
package obsreport

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
)

// ManifestSchema versions the manifest document layout.
const ManifestSchema = "nassim-run-manifest/v1"

// RunInfo is the caller-supplied description of the run being recorded:
// which vendors, at which options. Everything here is part of the run's
// identity (the RunID hash) and of the deterministic manifest body.
type RunInfo struct {
	Vendors  []string `json:"vendors"`
	Workers  int      `json:"workers"`
	Scale    float64  `json:"scale"`
	Seed     uint64   `json:"seed"`
	Validate bool     `json:"validate"`
	LiveTest bool     `json:"live_test"`
	Chaos    bool     `json:"chaos"`
}

// StageOutcome is what the engine did about one stage of one job.
type StageOutcome struct {
	Stage string `json:"stage"`
	// Outcome is "run" or "cache_hit".
	Outcome string `json:"outcome"`
	// Degraded carries the machine-readable degradation reason when the
	// stage produced a partial artifact under failure.
	Degraded string `json:"degraded,omitempty"`
}

// JobRecord is the per-vendor slice of the manifest: input content hashes
// and the paper's §6 evaluation metrics for that vendor's assimilation.
type JobRecord struct {
	Vendor string `json:"vendor"`
	// Failed marks a job whose pipeline run errored or was cancelled; the
	// remaining fields are then zero.
	Failed bool `json:"failed,omitempty"`
	// PagesHash is the content hash of the vendor's manual pages (the
	// parse stage's cache key input); ConfigHash covers the empirical
	// configuration corpus when that stage ran.
	PagesHash  string `json:"pages_hash,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`
	// Stages lists the stage graph in canonical execution order with what
	// the engine did about each (stages that never ran for this job are
	// omitted).
	Stages []StageOutcome `json:"stages,omitempty"`
	// Table 4 / §6 evaluation counters.
	Corpora            int     `json:"corpora"`
	Views              int     `json:"views"`
	InvalidCLIs        int     `json:"invalid_clis"`
	CorrectionsApplied int     `json:"corrections_applied"`
	ConfigFiles        int     `json:"config_files,omitempty"`
	ConfigLines        int     `json:"config_lines,omitempty"`
	MatchingRatio      float64 `json:"matching_ratio,omitempty"`
	LiveTested         int     `json:"live_tested,omitempty"`
	LiveVerified       int     `json:"live_verified,omitempty"`
	MappedParams       int     `json:"mapped_params,omitempty"`
	// Artifacts lists the stages this job warm-started by decoding a disk
	// artifact, in canonical stage order (empty on cold runs and for
	// engines without a disk mirror).
	Artifacts []ArtifactRecord `json:"artifacts,omitempty"`
}

// ArtifactRecord is one stage of one job satisfied by decoding a stored
// artifact from the disk mirror: which codec read it and how many bytes
// the stored document was. Codec names and encoded sizes are pure
// functions of the run's inputs, so the record lives in the deterministic
// manifest body — repeated warm runs must report identical loads.
type ArtifactRecord struct {
	Stage string `json:"stage"`
	Codec string `json:"codec"`
	Bytes int64  `json:"bytes"`
}

// CacheStat aggregates one stage's run/cache-hit split across the run.
type CacheStat struct {
	Stage     string `json:"stage"`
	Runs      int    `json:"runs"`
	CacheHits int    `json:"cache_hits"`
}

// SpanCount is the deterministic half of the span summary: how many spans
// of each name the run recorded (durations live in Timing.Spans).
type SpanCount struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// StageTiming is one executed stage's wall time (Timing block only).
type StageTiming struct {
	Vendor    string `json:"vendor"`
	Stage     string `json:"stage"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// PoolTiming is one executed stage's intra-stage worker-pool utilization
// (Timing block only): the evidence ROADMAP item 4 needs for the parse
// fan-out gap.
type PoolTiming struct {
	Vendor      string  `json:"vendor"`
	Stage       string  `json:"stage"`
	Workers     int     `json:"workers"`
	BusyNS      []int64 `json:"busy_ns"`
	WallNS      int64   `json:"wall_ns"`
	Utilization float64 `json:"utilization"`
}

// SpanTiming is one span name's accumulated duration (Timing block only).
type SpanTiming struct {
	Name    string `json:"name"`
	TotalNS int64  `json:"total_ns"`
}

// Timing is the quarantine block for everything wall-clock: the manifest
// determinism contract allows timestamps and durations here and nowhere
// else.
type Timing struct {
	StartedAt time.Time `json:"started_at"`
	WallNS    int64     `json:"wall_ns"`
	// CPUUserNS / CPUSysNS are the process CPU-time deltas over the run
	// (rusage), the manifest's run-level CPU cost.
	CPUUserNS int64 `json:"cpu_user_ns"`
	CPUSysNS  int64 `json:"cpu_sys_ns"`
	// Stages holds per-vendor wall time of executed stages, Pools their
	// intra-stage worker utilization, Spans the per-name span durations.
	Stages []StageTiming `json:"stages,omitempty"`
	Pools  []PoolTiming  `json:"pools,omitempty"`
	Spans  []SpanTiming  `json:"spans,omitempty"`
	// Metrics holds the duration-valued metric deltas (…_seconds_sum /
	// …_seconds_avg) that the deterministic MetricsDelta must not contain.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Derived holds named figures computed from the timing data above —
	// per-stage worker-pool utilizations aggregated across vendors, keyed
	// by telemetry.UtilizationKey (e.g. parse_worker_utilization_workers8).
	// BENCH_frontend.json's derived block uses the same derivation and
	// keys, so `-profile-stages` runs and bench exports report one number.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// Manifest is the per-run evidence artifact. See the package comment for
// the determinism contract.
type Manifest struct {
	Schema string `json:"schema"`
	// RunID is content-derived: the hash of the schema, run options, and
	// every job's input hashes. Identical inputs produce the identical ID,
	// so a manifest names the run's identity, not the wall-clock moment it
	// happened.
	RunID string  `json:"run_id"`
	Info  RunInfo `json:"info"`
	// ArtifactFormat names the on-disk artifact container the engine that
	// produced this run writes (pipeline.ArtifactFormat), so a stored
	// manifest says what layout its cached artifacts use.
	ArtifactFormat string      `json:"artifact_format"`
	Jobs           []JobRecord `json:"jobs"`
	// Cache aggregates run/cache-hit splits per stage; a fully warm run
	// shows zero runs.
	Cache []CacheStat `json:"cache,omitempty"`
	// Spans counts recorded spans per name (empty when tracing is off or
	// every stage was cache-satisfied).
	Spans []SpanCount `json:"spans,omitempty"`
	// MetricsDelta is the run's change to every non-duration metric of the
	// Default registry (counters, counts, sizes). Duration-valued deltas
	// are quarantined in Timing.Metrics.
	MetricsDelta map[string]float64 `json:"metrics_delta,omitempty"`
	// Reconcile carries the fleet-reconciliation block when the manifest
	// records a `nassim reconcile` run (nil for assimilation runs).
	Reconcile *ReconcileSummary `json:"reconcile,omitempty"`
	// Serve carries the daemon's serving block when the manifest records a
	// `nassim serve` process (nil for one-shot runs).
	Serve  *ServeSummary `json:"serve,omitempty"`
	Timing Timing        `json:"timing"`
}

// ServeSummary is the serving slice of a daemon manifest: request and
// dedup economy since the server started. Counters are monotonic; the
// block is a snapshot, so it lives outside the deterministic body's
// guarantees only via the counters' values (the field set is fixed).
type ServeSummary struct {
	// Requests counts submissions admitted past rate limiting; Executions
	// counts the pipeline runs they coalesced onto.
	Requests   int64 `json:"requests"`
	Executions int64 `json:"executions"`
	// DedupInflight counts requests that attached to an in-flight job;
	// DedupCached counts warm result-cache hits.
	DedupInflight int64   `json:"dedup_inflight"`
	DedupCached   int64   `json:"dedup_cached"`
	DedupHitRatio float64 `json:"dedup_hit_ratio"`
	// Shed counts requests rejected with 429 (queue full, rate, quota);
	// QueueMax is the high-water queue depth observed.
	Shed     int64 `json:"shed"`
	QueueMax int64 `json:"queue_max"`
	// Workers and QueueDepth echo the server's admission configuration.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	// Tenants counts distinct tenant IDs seen since start.
	Tenants int `json:"tenants"`
}

// ReconcileSummary is the fleet-reconciliation slice of a manifest: the
// final cycle's fleet health and drift counts plus the run's revalidation
// cache economy. Everything here is deterministic for a fixed seed.
type ReconcileSummary struct {
	Scenario string `json:"scenario,omitempty"`
	Devices  int    `json:"devices"`
	Cycles   int    `json:"cycles"`
	// Health counts devices by state (converged, drifted, degraded,
	// unreachable) after the final cycle.
	Health map[string]int `json:"health"`
	// Drift counts the final cycle's drift items by class.
	Drift map[string]int `json:"drift,omitempty"`
	// Invalidated totals the artifacts evicted on firmware skew across all
	// cycles; CacheHitRatio is the final cycle's revalidation ratio.
	Invalidated   int     `json:"invalidated"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	PlanActions   int     `json:"plan_actions"`
	PlanDeferred  bool    `json:"plan_deferred"`
}

// MarshalIndent renders the manifest as indented JSON with a trailing
// newline (map keys are sorted by encoding/json, so output is stable).
func (m *Manifest) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// CanonicalBytes renders the manifest with the Timing block zeroed — the
// bytes the determinism contract promises are identical across repeated
// runs of the same inputs.
func (m *Manifest) CanonicalBytes() ([]byte, error) {
	clone := *m
	clone.Timing = Timing{}
	return clone.MarshalIndent()
}

// WriteFile writes the manifest to path (parent directories are created).
func (m *Manifest) WriteFile(path string) error {
	data, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a manifest back and validates its schema — the round-trip
// loader the acceptance criteria require.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obsreport: %s: %w", path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obsreport: %s: schema %q, want %q", path, m.Schema, ManifestSchema)
	}
	return &m, nil
}

// Summary renders a short human-readable digest for CLI output.
func (m *Manifest) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s: %d vendor(s), wall %v",
		m.RunID[:12], len(m.Jobs), time.Duration(m.Timing.WallNS).Round(time.Millisecond))
	runs, hits := 0, 0
	for _, c := range m.Cache {
		runs += c.Runs
		hits += c.CacheHits
	}
	fmt.Fprintf(&b, ", stages run/cached %d/%d", runs, hits)
	degraded := 0
	for _, j := range m.Jobs {
		for _, s := range j.Stages {
			if s.Degraded != "" {
				degraded++
			}
		}
	}
	if degraded > 0 {
		fmt.Fprintf(&b, ", %d degraded stage(s)", degraded)
	}
	return b.String()
}

// Collector snapshots process state at run start so Build can report
// deltas. Create one immediately before the run, Build immediately after.
type Collector struct {
	start    time.Time
	cpuUser0 int64
	cpuSys0  int64
	metrics0 map[string]float64
}

// NewCollector starts collecting: wall clock, process CPU time, and a
// snapshot of the Default metrics registry.
func NewCollector() *Collector {
	user, sys := cpuTimes()
	return &Collector{
		start:    time.Now(),
		cpuUser0: user,
		cpuSys0:  sys,
		metrics0: telemetry.Default().FlatSnapshot(),
	}
}

// timingMetric reports whether a flattened metric key is run-to-run
// nondeterministic and therefore belongs in the Timing block, not the
// deterministic MetricsDelta: the _sum/_avg entries of *_seconds duration
// histograms, and hit counters of caches shared across concurrent workers
// (two goroutines racing on the same uncompiled template both count a
// miss, so the hit total varies with scheduling by a few counts).
func timingMetric(key string) bool {
	base := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		base = key[:i]
	}
	if strings.HasSuffix(base, "_cache_hits_total") || strings.HasSuffix(base, "_memo_hits_total") {
		return true
	}
	if !strings.Contains(base, "_seconds") {
		return false
	}
	return strings.HasSuffix(base, "_sum") || strings.HasSuffix(base, "_avg")
}

// Build assembles the manifest from the run's results. results holds one
// entry per requested vendor in request order; failed jobs are nil.
func (c *Collector) Build(info RunInfo, results []*pipeline.JobResult) *Manifest {
	m := &Manifest{Schema: ManifestSchema, Info: info, ArtifactFormat: pipeline.ArtifactFormat}

	// Per-vendor job records plus the per-stage cache aggregate.
	type agg struct{ runs, hits int }
	cache := map[string]*agg{}
	for i, vendor := range info.Vendors {
		var jr *pipeline.JobResult
		if i < len(results) {
			jr = results[i]
		}
		rec := JobRecord{Vendor: vendor}
		if jr == nil {
			rec.Failed = true
			m.Jobs = append(m.Jobs, rec)
			continue
		}
		rec.PagesHash = jr.PagesHash
		rec.ConfigHash = jr.ConfigHash
		ran := map[pipeline.Stage]bool{}
		for _, st := range jr.Ran {
			ran[st] = true
		}
		skipped := map[pipeline.Stage]bool{}
		for _, st := range jr.Skipped {
			skipped[st] = true
		}
		for _, st := range pipeline.Stages() {
			name := string(st)
			switch {
			case ran[st]:
				rec.Stages = append(rec.Stages, StageOutcome{
					Stage: name, Outcome: "run", Degraded: jr.DegradedStages[st],
				})
				a := cache[name]
				if a == nil {
					a = &agg{}
					cache[name] = a
				}
				a.runs++
			case skipped[st]:
				rec.Stages = append(rec.Stages, StageOutcome{
					Stage: name, Outcome: "cache_hit",
					Degraded: jr.DegradedStages[st],
				})
				a := cache[name]
				if a == nil {
					a = &agg{}
					cache[name] = a
				}
				a.hits++
			}
		}
		rec.Corpora = len(jr.Corpora)
		if jr.VDM != nil {
			rec.Views = len(jr.VDM.Views)
		}
		rec.InvalidCLIs = len(jr.Invalid)
		rec.CorrectionsApplied = jr.CorrectionsApplied
		if jr.Empirical != nil {
			rec.ConfigFiles = jr.Empirical.Files
			rec.ConfigLines = jr.Empirical.TotalLines
			rec.MatchingRatio = jr.Empirical.MatchingRatio()
		}
		if jr.Live != nil {
			rec.LiveTested = jr.Live.Tested
			rec.LiveVerified = jr.Live.Verified
		}
		rec.MappedParams = len(jr.Mapping)
		for _, st := range pipeline.Stages() {
			if al, ok := jr.DiskLoads[st]; ok {
				rec.Artifacts = append(rec.Artifacts, ArtifactRecord{
					Stage: string(st), Codec: al.Codec, Bytes: al.Bytes})
			}
		}
		m.Jobs = append(m.Jobs, rec)
	}
	for _, st := range pipeline.Stages() {
		if a := cache[string(st)]; a != nil {
			m.Cache = append(m.Cache, CacheStat{Stage: string(st), Runs: a.runs, CacheHits: a.hits})
		}
	}

	// Metrics delta, split deterministic vs duration-valued.
	after := telemetry.Default().FlatSnapshot()
	delta := map[string]float64{}
	timingDelta := map[string]float64{}
	for k, v := range after {
		d := v - c.metrics0[k]
		if d == 0 {
			continue
		}
		if timingMetric(k) {
			timingDelta[k] = d
		} else {
			delta[k] = d
		}
	}
	// _avg entries of non-duration histograms are ratios of sums that moved;
	// they are deterministic only if both parts are, which holds for the
	// size-valued histograms this registry keeps.
	if len(delta) > 0 {
		m.MetricsDelta = delta
	}

	// Span summary: spans recorded since the collector started, counts in
	// the deterministic body, durations in Timing.
	counts := map[string]int{}
	durs := map[string]int64{}
	if rec := telemetry.ActiveRecorder(); rec != nil {
		for _, s := range rec.Snapshot() {
			if s.Start.Before(c.start) {
				continue
			}
			counts[s.Name]++
			durs[s.Name] += s.DurationNS
		}
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m.Spans = append(m.Spans, SpanCount{Name: n, Count: counts[n]})
		m.Timing.Spans = append(m.Timing.Spans, SpanTiming{Name: n, TotalNS: durs[n]})
	}

	// Timing block: wall, CPU, per-stage wall time and pool utilization.
	user, sys := cpuTimes()
	m.Timing.StartedAt = c.start
	m.Timing.WallNS = time.Since(c.start).Nanoseconds()
	m.Timing.CPUUserNS = user - c.cpuUser0
	m.Timing.CPUSysNS = sys - c.cpuSys0
	// Derived pool utilization, aggregated across vendors per (stage,
	// worker count) with the same accumulator and key naming
	// BENCH_frontend.json uses — one code path, one number.
	derived := map[string]*telemetry.UtilizationAccum{}
	for i, vendor := range info.Vendors {
		if i >= len(results) || results[i] == nil {
			continue
		}
		jr := results[i]
		for _, st := range pipeline.Stages() {
			if d, ok := jr.StageElapsed[st]; ok {
				m.Timing.Stages = append(m.Timing.Stages, StageTiming{
					Vendor: vendor, Stage: string(st), ElapsedNS: d.Nanoseconds()})
			}
			if ps, ok := jr.Pools[st]; ok {
				m.Timing.Pools = append(m.Timing.Pools, PoolTiming{
					Vendor: vendor, Stage: string(st), Workers: ps.Workers,
					BusyNS: ps.BusyNS, WallNS: ps.WallNS,
					Utilization: ps.Utilization()})
				key := telemetry.UtilizationKey(string(st), ps.Workers)
				acc := derived[key]
				if acc == nil {
					acc = &telemetry.UtilizationAccum{}
					derived[key] = acc
				}
				acc.Add(ps)
			}
		}
	}
	for key, acc := range derived {
		if util, ok := acc.Utilization(); ok {
			if m.Timing.Derived == nil {
				m.Timing.Derived = map[string]float64{}
			}
			m.Timing.Derived[key] = util
		}
	}
	if len(timingDelta) > 0 {
		m.Timing.Metrics = timingDelta
	}

	m.RunID = runID(m)
	return m
}

// runID derives the content-addressed run identity from the deterministic
// inputs: schema, options, and every job's input hashes.
func runID(m *Manifest) string {
	h := sha256.New()
	fmt.Fprintln(h, m.Schema)
	fmt.Fprintf(h, "%v|%d|%g|%d|%t|%t|%t\n",
		m.Info.Vendors, m.Info.Workers, m.Info.Scale,
		m.Info.Seed, m.Info.Validate, m.Info.LiveTest, m.Info.Chaos)
	for _, j := range m.Jobs {
		fmt.Fprintf(h, "%s|%s|%s|%s\n", j.Vendor, j.PagesHash, j.ConfigHash,
			strconv.FormatBool(j.Failed))
	}
	return hex.EncodeToString(h.Sum(nil))
}
