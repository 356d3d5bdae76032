package nassim

import (
	"context"
	"path/filepath"
	"time"

	"nassim/internal/obsreport"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// This file is the engine-driven entry point: Assimilate drives the staged
// pipeline (internal/pipeline) over any number of vendors, with bounded
// per-vendor parallelism, content-hash artifact caching, and cancellation
// at stage boundaries. The synthetic substrates (model, manual, configs,
// device) stand in for the paper's proprietary inputs exactly as in the
// step-by-step API.

// Pipeline engine types re-exported for callers tuning Assimilate.
type (
	// PipelineStage names one engine stage (Parse, SyntaxValidate, ...).
	PipelineStage = pipeline.Stage
	// PipelineCache is the shared in-memory artifact store; pass one cache
	// to successive Assimilate calls to make warm re-runs skip unchanged
	// stages.
	PipelineCache = pipeline.MemStore
	// PipelineStats aggregates stage outcomes (runs vs cache hits) over
	// one Assimilate call.
	PipelineStats = pipeline.RunStats
)

// NewPipelineCache returns an empty shareable artifact cache.
func NewPipelineCache() *PipelineCache { return pipeline.NewMemStore() }

// PipelineStages lists the engine's stages in execution order.
func PipelineStages() []PipelineStage { return pipeline.Stages() }

// Options configures one Assimilate run.
type Options struct {
	// Vendors to assimilate; empty runs the four built-in vendors in
	// Table 4 order.
	Vendors []string
	// Scale is the synthetic corpus scale (1.0 = paper scale); <= 0
	// defaults to 0.1.
	Scale float64
	// Workers bounds per-vendor parallelism; <= 1 runs sequentially.
	// Results are deterministic and identical for any worker count.
	Workers int
	// Cache is the artifact store consulted before every stage; nil uses a
	// fresh store (no reuse across calls).
	Cache *PipelineCache
	// CacheDir, when set, mirrors four stages' artifacts on disk (parse,
	// hierarchy, empirical and map_to_udm) so later processes warm-start
	// from them. syntax_cgm stays in memory, so a restart still executes
	// one stage per job, a parse check that compiles no CGM; live_test
	// stays in memory because it records a device at one moment.
	CacheDir string
	// Validate runs empirical configuration validation (§5.3, Figure 8)
	// for vendors with a synthetic configuration corpus.
	Validate bool
	// LiveTest exercises commands unused by the configuration corpus
	// against an in-process simulated device (§5.3).
	LiveTest        bool
	PathsPerCommand int    // CGM paths instantiated per live-tested command (default 1)
	Seed            uint64 // live-test instantiation seed
	// Chaos, with LiveTest, serves each vendor's device over TCP behind a
	// fault-injecting listener and reaches it through a resilient client
	// (retry, circuit breaking, session replay). Each vendor derives its
	// own fault/jitter seeds from the profile's, so runs are deterministic
	// for any worker count. A device that stays unreachable degrades its
	// vendor's live report (see AssimilationResult.DegradedStages) instead
	// of failing the run.
	Chaos *ChaosProfile
	// LiveFailureBudget is the live stage's transport-failure budget; see
	// the pipeline Job field of the same name. 0 takes the default.
	LiveFailureBudget int
	// Report builds the run observatory's per-run manifest: input content
	// hashes, per-stage outcomes, cache hit/miss, worker-pool
	// utilization, metrics delta, and a span summary, with every duration
	// and timestamp quarantined in the manifest's timing block. The result
	// carries it, /debug/lastrun serves it, and with CacheDir set it is
	// also written under CacheDir/manifests/.
	Report bool
	// StageHook observes actual stage executions (cache hits never fire
	// it): it is called immediately before a stage executes and the
	// returned func — which may be nil — runs when the execution
	// finishes, so the hook brackets the stage's whole run. The pprof
	// flight recorder behind `nassim run -profile-stages` and the serving
	// daemon's live progress stream attach here; stage times are
	// AssimilationResult.StageElapsed, measured inside the bracket. The
	// hook is called from the engine's worker goroutines, so it must be
	// safe for concurrent use.
	StageHook func(vendor string, stage PipelineStage) func()
}

// Result is the outcome of one Assimilate run.
type Result struct {
	// Results holds one entry per requested vendor, in request order. A
	// vendor whose job failed or was cancelled leaves a nil entry and the
	// run's error says why.
	Results []*AssimilationResult
	// Stats aggregates stage outcomes: Stats.Skips() > 0 means the
	// artifact cache satisfied stages without re-running them.
	Stats PipelineStats
	// Report is the per-run manifest when Options.Report was set.
	Report *RunReport
}

// Assimilate runs the complete SNA pipeline for the requested vendors:
// render each synthetic manual, parse it, validate the syntax, apply the
// (simulated) expert corrections, derive the view hierarchy, and
// optionally validate against configurations and a live device. Vendors
// are assimilated concurrently up to Options.Workers; cancelling ctx stops
// the run at the next stage boundary. It is GenerateInputs for each vendor
// followed by AssimilateInputs.
func Assimilate(ctx context.Context, opts Options) (*Result, error) {
	vendors := opts.Vendors
	if len(vendors) == 0 {
		vendors = Vendors()
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 0.1
	}
	opts.Scale = scale
	inputs := make([]*Inputs, len(vendors))
	for i, vend := range vendors {
		in, err := GenerateInputs(vend, scale, opts.Validate)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	return AssimilateInputs(ctx, opts, inputs)
}

// AssimilateVendor is the single-vendor convenience form of Assimilate.
func AssimilateVendor(ctx context.Context, vendor string, scale float64) (*AssimilationResult, error) {
	res, err := Assimilate(ctx, Options{Vendors: []string{vendor}, Scale: scale})
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}

// AssimilateModel runs the pipeline on an existing ground-truth model
// (evaluation code mutates models before assimilating them).
func AssimilateModel(ctx context.Context, m *DeviceModel) (*AssimilationResult, error) {
	res, err := AssimilateInputs(ctx, Options{}, []*Inputs{{Model: m, Pages: SyntheticManual(m)}})
	if err != nil {
		return nil, err
	}
	return res.Results[0], nil
}

// Inputs is one vendor's pipeline inputs: what the paper downloads
// (the manual) or collects from the network (configurations, a device),
// here generated from a ground-truth model. A run only reads them, so
// one Inputs can feed any number of runs, concurrently.
type Inputs struct {
	Model *DeviceModel
	Pages []Page
	// Configs is the configuration corpus Options.Validate checks; runs
	// without it skip empirical validation.
	Configs []ConfigFile
	// Device is the acceptor Options.LiveTest runs against. Each run
	// tests a CloneFresh of it, so runs never share a running
	// configuration; nil builds one from Model per run.
	Device *Device
}

// GenerateInputs generates one vendor's synthetic inputs at scale: its
// ground-truth model and manual, plus, when configs is set and the paper
// has a corpus for the vendor, its configuration files.
func GenerateInputs(vendor string, scale float64, configs bool) (*Inputs, error) {
	m, err := SyntheticModel(vendor, scale)
	if err != nil {
		return nil, err
	}
	in := &Inputs{Model: m, Pages: SyntheticManual(m)}
	if configs {
		in.Configs, _ = SyntheticConfigs(m, scale)
	}
	return in, nil
}

// AssimilateInputs runs the pipeline over already-generated inputs, one
// engine job per vendor, with Options as for Assimilate: its Vendors are
// ignored (the inputs name theirs) and its Scale is only reported.
func AssimilateInputs(ctx context.Context, opts Options, inputs []*Inputs) (*Result, error) {
	eng, err := pipeline.New(pipeline.Config{
		Workers: opts.Workers, Store: storeOrNil(opts.Cache),
		CacheDir: opts.CacheDir, StageHook: opts.StageHook,
	})
	if err != nil {
		return nil, err
	}
	jobs := make([]pipeline.Job, len(inputs))
	// closers tears down the per-vendor chaos transports (server + client)
	// once the run is over.
	var closers []func()
	for i, in := range inputs {
		m := in.Model
		job := pipeline.Job{
			Vendor: string(m.Vendor),
			Pages:  in.Pages,
			Correct: func(flagged []vdm.InvalidCLI) []Correction {
				return ExpertCorrections(m, flagged)
			},
		}
		if opts.Validate {
			job.ConfigFiles = in.Configs
		}
		if opts.LiveTest {
			dev, err := in.device()
			if err != nil {
				closeAll(closers)
				return nil, err
			}
			if opts.Chaos != nil {
				p := *opts.Chaos
				p.Seed = chaosSeed(opts.Chaos.Seed, i)
				srv, _, err := ServeDeviceChaos(dev, "127.0.0.1:0", p)
				if err != nil {
					closeAll(closers)
					return nil, err
				}
				// An assimilation run is thousands of exchanges, so the
				// interactive default retry budget would run dry mid-corpus;
				// the breaker still guards against a device that stays dead.
				rc := DialDeviceResilient(srv.Addr(), ResilientOptions{
					Seed:  chaosSeed(opts.Chaos.Seed, i) ^ 0xc1a05,
					Retry: RetryPolicy{Budget: -1},
				})
				closers = append(closers, func() { rc.Close(); srv.Close() })
				job.Exec = rc
			} else {
				job.Exec = SessionExecutor(dev.NewSession())
			}
			job.ShowCmd = dev.ShowConfigCommand()
			job.PathsPerCommand = opts.PathsPerCommand
			job.Seed = opts.Seed
			job.LiveFailureBudget = opts.LiveFailureBudget
		}
		jobs[i] = job
	}
	var collector *obsreport.Collector
	if opts.Report {
		collector = obsreport.NewCollector()
	}
	start := time.Now()
	jrs, runErr := eng.Run(ctx, jobs)
	closeAll(closers)
	res := &Result{
		Results: make([]*AssimilationResult, len(jrs)),
		Stats:   pipeline.Summarize(jrs, time.Since(start)),
	}
	if collector != nil {
		info := obsreport.RunInfo{
			Workers: opts.Workers, Scale: opts.Scale, Seed: opts.Seed,
			Validate: opts.Validate, LiveTest: opts.LiveTest,
			Chaos: opts.Chaos != nil, LiveFailureBudget: opts.LiveFailureBudget,
		}
		for _, in := range inputs {
			info.Vendors = append(info.Vendors, string(in.Model.Vendor))
		}
		res.Report = collector.Build(info, jrs)
		telemetry.SetLastRun(res.Report)
		if opts.CacheDir != "" {
			dir := filepath.Join(opts.CacheDir, "manifests")
			if err := res.Report.WriteFile(filepath.Join(dir, res.Report.RunID+".json")); err != nil {
				Logger("obsreport").Warn("manifest write failed", "err", err)
			} else if err := res.Report.WriteFile(filepath.Join(dir, "latest.json")); err != nil {
				Logger("obsreport").Warn("manifest write failed", "err", err)
			}
		}
	}
	for i, jr := range jrs {
		if jr == nil {
			continue
		}
		res.Results[i] = &AssimilationResult{
			Model: inputs[i].Model,
			Parsed: &ParseResult{Corpora: jr.Corpora, Hierarchy: jr.Hierarchy,
				Completeness: jr.Completeness},
			VDM:                  jr.VDM,
			DeriveReport:         jr.Derive,
			PreCorrectionInvalid: len(jr.Invalid),
			CorrectionsApplied:   jr.CorrectionsApplied,
			Empirical:            jr.Empirical,
			Live:                 jr.Live,
			StagesRun:            jr.Ran,
			StagesSkipped:        jr.Skipped,
			StageElapsed:         jr.StageElapsed,
			DegradedStages:       jr.DegradedStages,
			PagesHash:            jr.PagesHash,
			ConfigHash:           jr.ConfigHash,
			HierarchyKey:         jr.Keys[pipeline.StageDeriveHierarchy],
		}
	}
	return res, runErr
}

// device returns the device a live-testing run talks to: a fresh clone of
// the shared acceptor, or a new device when there is none.
func (in *Inputs) device() (*Device, error) {
	if in.Device != nil {
		return in.Device.CloneFresh(), nil
	}
	return NewDevice(in.Model)
}

func closeAll(closers []func()) {
	for _, c := range closers {
		c()
	}
}

// storeOrNil avoids handing the engine a typed-nil Store interface.
func storeOrNil(c *PipelineCache) pipeline.Store {
	if c == nil {
		return nil
	}
	return c
}
