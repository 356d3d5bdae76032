package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"time"

	"nassim"
	"nassim/internal/device"
	"nassim/internal/empirical"
	"nassim/internal/pipeline"
	"nassim/internal/serve"
	"nassim/internal/vdm"
)

// serveLayers records the traced daemon's per-request costs, the tracing
// overhead, and the in-process layer figures.
func serveLayers(o *options, res *result, l *serveLoad, untraced, ls *loadStats, before, after phaseCounters) error {
	m := res.metrics
	n := float64(len(ls.lat))
	delta := func(series string) float64 { return after.prom[series] - before.prom[series] }
	m.set("serve.bytes_per_req", float64(ls.bytes)/n, "B")
	m.set("daemon.cpu_ms_per_req", (after.daemonCPU-before.daemonCPU).Seconds()*1e3/n, "ms")
	m.set("loadgen.cpu_us_per_req", (after.selfCPU-before.selfCPU).Seconds()*1e6/n, "us")
	m.set("serve.cache_hit_ratio", ratio(delta(`nassim_serve_requests_total{outcome="cache"}`),
		sumDelta(before.prom, after.prom, "nassim_serve_requests_total")), "ratio")
	m.set("trace.overhead_ratio", ratio(mean(ls.lat)-mean(untraced.lat), mean(untraced.lat)), "ratio")
	if err := writeSpans(o, "requests", ls.spans); err != nil {
		return err
	}
	if !l.miss {
		dec, adm, wt, err := hotLayerLoop(o, l.want)
		if err != nil {
			return err
		}
		m.set("serve.decode_us", dec, "us")
		m.set("serve.admit_us", adm, "us")
		m.set("serve.wait_us", wt, "us")
		m.set("http.us_per_req", mean(untraced.lat)*1e6-dec-adm-wt, "us")
		return nil
	}
	var stageHits, stageAll float64
	for k, v := range after.prom {
		if strings.HasPrefix(k, "nassim_pipeline_stage_total{") {
			dv := v - before.prom[k]
			stageAll += dv
			if strings.Contains(k, `outcome="cache_hit"`) {
				stageHits += dv
			}
		}
	}
	m.set("pipeline.stage_hit_ratio", ratio(stageHits, stageAll), "ratio")
	m.set("live_test.busy_ms_per_req", delta(`nassim_pipeline_stage_seconds_sum{stage="live_test"}`)*1e3/n, "ms")
	m.set("device.exchanges_per_req", sumDelta(before.prom, after.prom, "nassim_device_exec_total")/n, "count")
	m.set("serve.queue_wait_ms", mean(ls.queueWait)*1e3, "ms")
	// The daemon caches every indented response: the set-up one plus one
	// per measured request.
	m.set("serve.cached_mb", float64(len(l.want[0]))*(1+n)/(1<<20), "MB")
	return replayMiss(res)
}

// hotLayerLoop times the warm path's steps in-process on a server warmed
// with the same five keys: request decode, Server.Start (check,
// normalization, sha256 key, admission, cache lookup) and Ticket.Wait.
// It returns the mean microseconds of each.
func hotLayerLoop(o *options, want [][]byte) (decode, admit, wait float64, err error) {
	s, err := serve.NewServer(serve.Config{Runner: serve.NewRunner(serve.RunnerConfig{})})
	if err != nil {
		return 0, 0, 0, err
	}
	defer s.Shutdown(context.Background())
	bodies := hotBodies()
	for i, b := range bodies {
		var req serve.Request
		if err := json.Unmarshal(b, &req); err != nil {
			return 0, 0, 0, err
		}
		got, _, err := s.Submit(context.Background(), req)
		if err != nil {
			return 0, 0, 0, err
		}
		if !bytes.Equal(got, want[i]) {
			return 0, 0, 0, fmt.Errorf("serve: in-process response %d differs from the daemon's", i)
		}
	}
	rng := rand.New(rand.NewPCG(o.seed, 99))
	var tDec, tAdm, tWait time.Duration
	n := 0
	for end := time.Now().Add(time.Second); time.Now().Before(end); n++ {
		b := bodies[rng.IntN(len(bodies))]
		t0 := time.Now()
		var req serve.Request
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		tk, err := s.Start(req)
		if err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		if _, err := tk.Wait(context.Background()); err != nil {
			return 0, 0, 0, err
		}
		t3 := time.Now()
		tDec += t1.Sub(t0)
		tAdm += t2.Sub(t1)
		tWait += t3.Sub(t2)
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 / float64(n) }
	return us(tDec), us(tAdm), us(tWait), nil
}

// timedExec wraps a device executor and times every exchange.
type timedExec struct {
	inner empirical.ContextExecutor
	mu    sync.Mutex
	n     int
	busy  time.Duration
}

func (t *timedExec) Exec(line string) (device.Response, error) {
	return t.ExecContext(context.Background(), line)
}

func (t *timedExec) ExecContext(ctx context.Context, line string) (device.Response, error) {
	t0 := time.Now()
	r, err := t.inner.ExecContext(ctx, line)
	d := time.Since(t0)
	t.mu.Lock()
	t.n++
	t.busy += d
	t.mu.Unlock()
	return r, err
}

// replayMiss replays one serve_miss request in-process through its
// public steps: input generation, input hashing, the engine (with a timed
// device executor) over a store that already holds the set-up request's
// artifacts, then response build and encode.
func replayMiss(res *result) error {
	// The engine keeps its artifact store across runs, like the daemon's
	// runner does across requests.
	eng, err := pipeline.New(pipeline.Config{Workers: 2})
	if err != nil {
		return err
	}
	gen := func() ([]onboardInput, error) {
		var out []onboardInput
		for _, v := range nassim.Vendors() {
			m, err := nassim.SyntheticModel(v, 0.05)
			if err != nil {
				return nil, err
			}
			in := onboardInput{model: m, pages: nassim.SyntheticManual(m)}
			in.files, _ = nassim.SyntheticConfigs(m, 0.05)
			out = append(out, in)
		}
		return out, nil
	}
	jobsFor := func(ins []onboardInput, seed uint64) ([]pipeline.Job, []*timedExec, error) {
		var jobs []pipeline.Job
		var execs []*timedExec
		for _, in := range ins {
			m := in.model
			dev, err := nassim.NewDevice(m)
			if err != nil {
				return nil, nil, err
			}
			sess, ok := nassim.SessionExecutor(dev.NewSession()).(empirical.ContextExecutor)
			if !ok {
				return nil, nil, fmt.Errorf("serve: session executor does not take a context")
			}
			te := &timedExec{inner: sess}
			execs = append(execs, te)
			jobs = append(jobs, pipeline.Job{
				Vendor: string(m.Vendor), Pages: in.pages,
				Correct:     func(flagged []vdm.InvalidCLI) []nassim.Correction { return nassim.ExpertCorrections(m, flagged) },
				ConfigFiles: in.files,
				Exec:        te, ShowCmd: dev.ShowConfigCommand(), PathsPerCommand: 1, Seed: seed,
			})
		}
		return jobs, execs, nil
	}
	// The set-up request's run fills the store.
	ins, err := gen()
	if err != nil {
		return err
	}
	jobs, _, err := jobsFor(ins, 0)
	if err != nil {
		return err
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		return err
	}

	t0 := time.Now()
	ins, err = gen()
	if err != nil {
		return err
	}
	t1 := time.Now()
	for _, in := range ins {
		parts := []string{string(in.model.Vendor)}
		for _, p := range in.pages {
			parts = append(parts, p.URL, p.HTML)
		}
		pipeline.HashStrings(parts...)
		parts = parts[:0]
		for _, f := range in.files {
			parts = append(parts, f.Name)
			parts = append(parts, f.Lines...)
		}
		pipeline.HashStrings(parts...)
	}
	t2 := time.Now()
	const seed = 1 << 40
	jobs, execs, err := jobsFor(ins, seed)
	if err != nil {
		return err
	}
	jrs, err := eng.Run(context.Background(), jobs)
	if err != nil {
		return err
	}
	t3 := time.Now()
	results := make([]*nassim.AssimilationResult, len(jrs))
	for i, jr := range jrs {
		results[i] = &nassim.AssimilationResult{
			Model: ins[i].model, VDM: jr.VDM, DeriveReport: jr.Derive,
			PreCorrectionInvalid: len(jr.Invalid), CorrectionsApplied: jr.CorrectionsApplied,
			Empirical: jr.Empirical, Live: jr.Live, DegradedStages: jr.DegradedStages,
			PagesHash: jr.PagesHash, ConfigHash: jr.ConfigHash,
		}
	}
	req := missRequest(seed)
	resp, err := serve.BuildResponse(req, results)
	if err != nil {
		return err
	}
	t4 := time.Now()
	if _, err := serve.EncodeResponse(resp); err != nil {
		return err
	}
	t5 := time.Now()
	var n int
	var busy time.Duration
	for _, te := range execs {
		n += te.n
		busy += te.busy
	}
	m := res.metrics
	m.set("synthetic.generate_ms_per_req", t1.Sub(t0).Seconds()*1e3, "ms")
	m.set("pipeline.hash_ms_per_req", t2.Sub(t1).Seconds()*1e3, "ms")
	m.set("device.us_per_exchange", ratio(busy.Seconds()*1e6, float64(n)), "us")
	m.set("serve.build_ms_per_req", t4.Sub(t3).Seconds()*1e3, "ms")
	m.set("serve.encode_ms_per_req", t5.Sub(t4).Seconds()*1e3, "ms")
	return nil
}
