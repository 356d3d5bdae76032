package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"

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

// NewRunner builds the production Runner: it drives
// nassim.AssimilateInputs over a shared artifact cache and encodes the
// deterministic response document. The StageObserver is wired through
// nassim.Options.StageHook, so subscribers see each real stage execution
// (cache hits are silent, exactly like the pipeline).
//
// A request's only fresh work is what depends on it: each vendor's
// generated inputs and rendered VDM document come from a memo that every
// request the runner serves shares.
func NewRunner(cfg RunnerConfig) Runner { return newRunner(cfg).run }

type runner struct {
	cfg  RunnerConfig
	memo memo
}

func newRunner(cfg RunnerConfig) *runner {
	if cfg.Cache == nil {
		cfg.Cache = nassim.NewPipelineCache()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	return &runner{cfg: cfg, memo: memo{entries: map[memoKey]*memoEntry{}}}
}

func (rn *runner) run(ctx context.Context, req Request, observe StageObserver) ([]byte, error) {
	n := req.Normalize()
	entries := make([]*memoEntry, len(n.Vendors))
	inputs := make([]*nassim.Inputs, len(n.Vendors))
	for i, v := range n.Vendors {
		e, err := rn.memo.get(v, n.Scale)
		if err != nil {
			return nil, fmt.Errorf("serve: inputs: %w", err)
		}
		entries[i], inputs[i] = e, e.in
	}
	opts := nassim.Options{
		Workers:  rn.cfg.Workers,
		Cache:    rn.cfg.Cache,
		CacheDir: rn.cfg.CacheDir,
		Validate: n.Validate,
		LiveTest: n.LiveTest,
		Seed:     n.Seed,
	}
	if observe != nil {
		opts.StageHook = func(vendor string, stage nassim.PipelineStage) func() {
			return observe(vendor, string(stage))
		}
	}
	res, err := nassim.AssimilateInputs(ctx, opts, inputs)
	if err != nil {
		return nil, fmt.Errorf("serve: assimilate: %w", err)
	}
	resp, err := buildResponse(n, res.Results, func(i int, r *nassim.AssimilationResult) (json.RawMessage, error) {
		return entries[i].vdmDoc(r)
	})
	if err != nil {
		return nil, err
	}
	return EncodeResponse(resp)
}

// memoCapacity bounds the runner's memo. The scale in its key is a float
// the client picks, so the key space has no bound of its own; eight
// entries hold all four vendors at two scales.
const memoCapacity = 8

type memoKey struct {
	vendor string
	scale  float64
}

// memo holds each (vendor, scale)'s generated inputs and rendered VDM
// document, evicting the oldest entry past memoCapacity.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	order   []memoKey // FIFO eviction order for entries
}

// memoEntry is one vendor's inputs at one scale. Concurrent requests
// share it read-only: once sets the inputs, and a newly rendered document
// replaces the held one rather than being written into it.
type memoEntry struct {
	once sync.Once
	in   *nassim.Inputs // with Configs and the device acceptor
	err  error

	// mu guards doc, the VDM document last rendered for its place in
	// the response, and docKey, the hierarchy artifact key it came from.
	mu     sync.Mutex
	doc    json.RawMessage
	docKey string
}

// get returns the entry for vendor at scale, generating its inputs on
// first use; concurrent first uses wait for one generation.
func (m *memo) get(vendor string, scale float64) (*memoEntry, error) {
	k := memoKey{vendor, scale}
	m.mu.Lock()
	e, ok := m.entries[k]
	if !ok {
		e = &memoEntry{}
		m.entries[k] = e
		m.order = append(m.order, k)
		for len(m.order) > memoCapacity {
			delete(m.entries, m.order[0])
			m.order = m.order[1:]
		}
	}
	m.mu.Unlock()
	e.once.Do(func() {
		in, err := nassim.GenerateInputs(vendor, scale, true)
		if err == nil {
			in.Device, err = nassim.NewDevice(in.Model)
		}
		e.in, e.err = in, err
	})
	return e, e.err
}

// vdmDoc returns r's VDM document, rendering it only when r's hierarchy
// key differs from the one the held document was rendered from.
func (e *memoEntry) vdmDoc(r *nassim.AssimilationResult) (json.RawMessage, error) {
	e.mu.Lock()
	doc, key := e.doc, e.docKey
	e.mu.Unlock()
	if r.HierarchyKey != "" && key == r.HierarchyKey {
		return doc, nil
	}
	doc, err := renderVDM(r)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.doc, e.docKey = doc, r.HierarchyKey
	e.mu.Unlock()
	return doc, nil
}
