package serve

import (
	"context"
	"fmt"

	"nassim"
)

// RunnerConfig tunes the default nassim-backed runner.
type RunnerConfig struct {
	// Workers is the per-request vendor parallelism (nassim.Options.Workers).
	Workers int
	// Cache is the shared artifact store; nil allocates one, shared by
	// every request this runner serves, so repeated work at the pipeline
	// level is also deduplicated.
	Cache *nassim.PipelineCache
	// CacheDir mirrors the parse, hierarchy, empirical and map_to_udm
	// artifacts on disk (optional).
	CacheDir string
}

// NewRunner builds the production Runner: it drives nassim.Assimilate
// over a shared artifact cache and encodes the deterministic response
// document. The StageObserver is wired through nassim.Options.StageHook,
// so subscribers see each real stage execution (cache hits are silent,
// exactly like the pipeline).
func NewRunner(cfg RunnerConfig) Runner {
	if cfg.Cache == nil {
		cfg.Cache = nassim.NewPipelineCache()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	return func(ctx context.Context, req Request, observe StageObserver) ([]byte, error) {
		n := req.Normalize()
		opts := nassim.Options{
			Vendors:  n.Vendors,
			Scale:    n.Scale,
			Workers:  cfg.Workers,
			Cache:    cfg.Cache,
			CacheDir: cfg.CacheDir,
			Validate: n.Validate,
			LiveTest: n.LiveTest,
			Seed:     n.Seed,
		}
		if observe != nil {
			opts.StageHook = func(vendor string, stage nassim.PipelineStage) func() {
				return observe(vendor, string(stage))
			}
		}
		res, err := nassim.Assimilate(ctx, opts)
		if err != nil {
			return nil, fmt.Errorf("serve: assimilate: %w", err)
		}
		resp, err := BuildResponse(n, res.Results)
		if err != nil {
			return nil, err
		}
		return EncodeResponse(resp)
	}
}
