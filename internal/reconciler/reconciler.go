package reconciler

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nassim/internal/configgen"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
)

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_reconcile_cycles_total", "Reconcile cycles completed.")
	reg.SetHelp("nassim_reconcile_fleet_devices", "Fleet devices by health state, from the last completed cycle.")
	reg.SetHelp("nassim_reconcile_drift_total", "Drift items detected, by class.")
	reg.SetHelp("nassim_reconcile_probes_total", "Fleet probes, by outcome (ok, error).")
	reg.SetHelp("nassim_reconcile_probe_seconds", "Wall time of fleet probes (dial + exchange + retries).")
	reg.SetHelp("nassim_reconcile_plans_deferred_total", "Plans deferred because unreachable devices exceeded the failure budget.")
	reg.SetHelp("nassim_reconcile_invalidated_total", "Pipeline artifacts invalidated on firmware skew.")
}

// Health classifies one device's state after a probe.
type Health string

// The fleet health states. Precedence per device: unreachable (the probe
// failed) > drifted (observed diverges from desired) > degraded (the
// probe succeeded but needed retries) > converged.
const (
	HealthConverged   Health = "converged"
	HealthDrifted     Health = "drifted"
	HealthDegraded    Health = "degraded"
	HealthUnreachable Health = "unreachable"
)

// HealthStates lists the states in precedence order.
func HealthStates() []Health {
	return []Health{HealthConverged, HealthDrifted, HealthDegraded, HealthUnreachable}
}

// DriftItem is one classified divergence on one device.
type DriftItem struct {
	Class DriftClass
	// Line is the desired line (for extra_cli: the observed line that
	// should not be there).
	Line string
	// Observed carries the diverging observed value for param_skew
	// (the skewed line) and firmware_skew (the reported version).
	Observed string
	// Template is the matched template ID, "" when no template matches.
	Template string
}

// DeviceReport is one device's outcome in one cycle.
type DeviceReport struct {
	Device  string
	Vendor  string
	Health  Health
	Drift   []DriftItem
	Retries uint64 // counted retries this probe needed
	Err     string // probe error, "" on success (not part of the plan)
	Latency time.Duration
}

// CycleResult is everything one reconcile cycle learned.
type CycleResult struct {
	Cycle   int
	Reports []DeviceReport // by device index
	Health  map[Health]int
	Plan    *Plan
	// Stats aggregates the incremental revalidation's stage outcomes:
	// Skips are cache hits, Runs are the stages drift invalidated.
	Stats pipeline.RunStats
	// JobResults are the revalidation's per-vendor results (for manifest
	// builders).
	JobResults []*pipeline.JobResult
	// Invalidated counts artifacts evicted on firmware skew this cycle.
	Invalidated        int
	ProbeP50, ProbeP99 time.Duration
	Wall               time.Duration
}

// CacheHitRatio is the revalidation's cache-hit ratio over this cycle.
func (cr *CycleResult) CacheHitRatio() float64 {
	runs, skips := cr.Stats.Runs(), cr.Stats.Skips()
	if runs+skips == 0 {
		return 0
	}
	return float64(skips) / float64(runs+skips)
}

// Config tunes a Reconciler.
type Config struct {
	// Spec declares the fleet.
	Spec FleetSpec
	// Interval paces Run's cycles (default 1s). RunCycle ignores it.
	Interval time.Duration
	// MaxParallel bounds concurrent probes (default 8). Plans are
	// identical for any value.
	MaxParallel int
	// FailureBudget is the per-cycle unreachable-device budget: exceeding
	// it defers the plan instead of acting on a partial view. 0 takes
	// max(1, Devices/8); negative disables the budget.
	FailureBudget int
	// BreakerCooldown is the per-device breaker's open interval: a dead
	// device costs one half-open probe per cooldown (default 250ms).
	BreakerCooldown time.Duration
	// Workers bounds the revalidation pipeline's per-vendor parallelism.
	Workers int
	// Store is the pipeline artifact cache; nil uses a fresh MemStore.
	// Sharing a warmed store makes even the first cycle's derivation a
	// cache hit.
	Store *pipeline.MemStore
	// OnCycle, when set, observes every completed cycle of Run.
	OnCycle func(*CycleResult)
}

func (c Config) withDefaults() Config {
	c.Spec = c.Spec.withDefaults()
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = 8
	}
	if c.FailureBudget == 0 {
		c.FailureBudget = c.Spec.Devices / 8
		if c.FailureBudget < 1 {
			c.FailureBudget = 1
		}
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 250 * time.Millisecond
	}
	return c
}

// Reconciler is the continuous desired-vs-observed control loop.
type Reconciler struct {
	cfg     Config
	eng     *pipeline.Engine
	desired map[string]*vendorDesired
	fleet   *Fleet
	cycle   int
}

// New derives the fleet's desired state (one pipeline pass per vendor —
// the assimilation the reconciler holds the fleet to), then builds and
// serves the fleet. Close releases everything.
func New(ctx context.Context, cfg Config) (*Reconciler, error) {
	cfg = cfg.withDefaults()
	eng, err := pipeline.New(pipeline.Config{Workers: cfg.Workers, Store: cfg.Store})
	if err != nil {
		return nil, err
	}
	r := &Reconciler{cfg: cfg, eng: eng, desired: map[string]*vendorDesired{}}
	jobs := make([]pipeline.Job, 0, len(cfg.Spec.Vendors))
	vds := make([]*vendorDesired, 0, len(cfg.Spec.Vendors))
	for _, vend := range cfg.Spec.Vendors {
		m, err := vendorModel(vend, cfg.Spec.Scale)
		if err != nil {
			return nil, err
		}
		vd := &vendorDesired{vendor: vend, model: m, pages: renderPages(m)}
		vds = append(vds, vd)
		jobs = append(jobs, vd.job())
		r.desired[vend] = vd
	}
	jrs, err := eng.Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("reconciler: desired-state derivation: %w", err)
	}
	for i, jr := range jrs {
		vds[i].vdm = jr.VDM
		vds[i].keys = jr.Keys
		vds[i].pickCandidates(cfg.Spec.LinesPerDevice)
	}
	fleet, err := newFleet(cfg.Spec, r.desired, cfg.BreakerCooldown)
	if err != nil {
		return nil, err
	}
	r.fleet = fleet
	return r, nil
}

// Close tears down the fleet. The reconciler must not be used afterwards.
func (r *Reconciler) Close() error { return r.fleet.Close() }

// Run drives cycles at the configured interval until ctx is cancelled,
// reporting each completed cycle to OnCycle. It returns ctx.Err() on
// cancellation and the first hard error otherwise (probe failures are not
// hard errors; they classify devices as unreachable).
func (r *Reconciler) Run(ctx context.Context) error {
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		cr, err := r.RunCycle(ctx)
		if err != nil {
			return err
		}
		if r.cfg.OnCycle != nil {
			r.cfg.OnCycle(cr)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// RunCycle performs one reconcile cycle: probe every device (bounded by
// MaxParallel), classify drift against desired state, re-validate only
// the invalidated pipeline stages, and emit the cycle's plan.
func (r *Reconciler) RunCycle(ctx context.Context) (*CycleResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	r.cycle++
	cr := &CycleResult{Cycle: r.cycle, Health: map[Health]int{}}
	cr.Reports = r.probeAll(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.revalidate(ctx, cr); err != nil {
		return nil, err
	}
	for i := range cr.Reports {
		cr.Health[cr.Reports[i].Health]++
	}
	cr.Plan = r.buildPlan(cr)
	cr.ProbeP50, cr.ProbeP99 = probeQuantiles(cr.Reports)
	cr.Wall = time.Since(start)
	r.export(cr)
	return cr, nil
}

// probeAll snapshots every device's observed config concurrently. Each
// device has its own persistent client (its own connection, breaker, and
// fault stream), so per-device outcomes are independent of scheduling and
// of MaxParallel.
func (r *Reconciler) probeAll(ctx context.Context) []DeviceReport {
	reports := make([]DeviceReport, len(r.fleet.devices))
	sem := make(chan struct{}, r.cfg.MaxParallel)
	var wg sync.WaitGroup
	for i, fd := range r.fleet.devices {
		wg.Add(1)
		go func(i int, fd *fleetDevice) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reports[i] = r.probeOne(ctx, fd)
		}(i, fd)
	}
	wg.Wait()
	return reports
}

// probeOne reads one device's running config and classifies its drift.
func (r *Reconciler) probeOne(ctx context.Context, fd *fleetDevice) DeviceReport {
	rep := DeviceReport{Device: fd.id, Vendor: fd.vendor}
	before := fd.client.Retries()
	start := time.Now()
	resp, err := fd.client.ExecContext(ctx, fd.showCmd)
	rep.Latency = time.Since(start)
	rep.Retries = fd.client.Retries() - before
	telemetry.GetHistogram("nassim_reconcile_probe_seconds", nil).ObserveDuration(rep.Latency)
	if err != nil {
		rep.Health = HealthUnreachable
		rep.Err = err.Error()
		telemetry.GetCounter("nassim_reconcile_probes_total", "outcome", "error").Inc()
		return rep
	}
	telemetry.GetCounter("nassim_reconcile_probes_total", "outcome", "ok").Inc()
	rep.Drift = r.classify(fd, resp.Data)
	switch {
	case len(rep.Drift) > 0:
		rep.Health = HealthDrifted
	case rep.Retries > 0:
		rep.Health = HealthDegraded
	default:
		rep.Health = HealthConverged
	}
	return rep
}

// classify diffs one device's observed config against its desired state.
// Unmatched desired lines and unmatched observed lines that instantiate
// the same template pair up as parameter skew; the remainders are missing
// and extra CLI; a diverging firmware banner is firmware skew.
func (r *Reconciler) classify(fd *fleetDevice, observed []string) []DriftItem {
	vd := r.desired[fd.vendor]
	obs := map[string]int{}
	obsFW := ""
	for _, l := range observed {
		l = normalizeLine(l)
		if l == "" {
			continue
		}
		if fw := firmwareOf(l); fw != "" {
			obsFW = fw
			continue
		}
		obs[l]++
	}
	var missing []string
	for _, dl := range fd.desired {
		if dl.corpus < 0 {
			continue
		}
		if obs[dl.line] > 0 {
			obs[dl.line]--
			continue
		}
		missing = append(missing, dl.line)
	}
	var extra []string
	for l, c := range obs {
		for k := 0; k < c; k++ {
			extra = append(extra, l)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)

	tmpl := func(l string) string {
		if ids := vd.vdm.Index.Match(l); len(ids) > 0 {
			return ids[0]
		}
		return ""
	}
	extraTmpl := make([]string, len(extra))
	for i, l := range extra {
		extraTmpl[i] = tmpl(l)
	}
	usedExtra := make([]bool, len(extra))

	var items []DriftItem
	if obsFW != "" && obsFW != r.cfg.Spec.DesiredFirmware {
		items = append(items, DriftItem{Class: DriftFirmwareSkew,
			Line: firmwareBanner(r.cfg.Spec.DesiredFirmware), Observed: obsFW})
	}
	for _, l := range missing {
		t := tmpl(l)
		paired := false
		if t != "" {
			for j := range extra {
				if !usedExtra[j] && extraTmpl[j] == t {
					usedExtra[j] = true
					items = append(items, DriftItem{Class: DriftParamSkew, Line: l, Observed: extra[j], Template: t})
					paired = true
					break
				}
			}
		}
		if !paired {
			items = append(items, DriftItem{Class: DriftMissingCLI, Line: l, Template: t})
		}
	}
	for j := range extra {
		if !usedExtra[j] {
			items = append(items, DriftItem{Class: DriftExtraCLI, Line: extra[j], Template: extraTmpl[j]})
		}
	}
	return items
}

// revalidate re-runs exactly the pipeline stages this cycle's observations
// invalidated. Each vendor's job carries the observed configs of its
// reachable devices as the empirical corpus: the content-hash key chain
// makes an unchanged vendor a pure cache hit, a config change re-runs only
// EmpiricalValidate, and firmware skew — which changes no bytes but voids
// the empirical evidence — explicitly evicts the vendor's cached empirical
// artifact through Engine.Invalidate.
func (r *Reconciler) revalidate(ctx context.Context, cr *CycleResult) error {
	type vendorObs struct {
		files    []configgen.File
		fwSkewed bool
	}
	byVendor := map[string]*vendorObs{}
	for _, vend := range r.cfg.Spec.Vendors {
		byVendor[vend] = &vendorObs{}
	}
	for i, fd := range r.fleet.devices {
		rep := &cr.Reports[i]
		if rep.Health == HealthUnreachable {
			continue
		}
		vo := byVendor[fd.vendor]
		// Reconstruct the observed CLI body from the classified view:
		// desired minus missing/skewed, plus skewed observations. Comments
		// (firmware banner, legacy lines) are not CLI and stay out.
		vo.files = append(vo.files, configgen.File{Name: fd.id, Lines: observedCLI(fd, rep.Drift)})
		for _, it := range rep.Drift {
			if it.Class == DriftFirmwareSkew {
				vo.fwSkewed = true
			}
		}
	}
	var jobs []pipeline.Job
	var vds []*vendorDesired
	for _, vend := range r.cfg.Spec.Vendors {
		vo := byVendor[vend]
		vd := r.desired[vend]
		if vo.fwSkewed {
			if key, ok := vd.keys[pipeline.StageEmpiricalValidate]; ok {
				n := r.eng.Invalidate(key)
				cr.Invalidated += n
				telemetry.GetCounter("nassim_reconcile_invalidated_total").Add(int64(n))
			}
		}
		job := vd.job()
		job.ConfigFiles = vo.files
		jobs = append(jobs, job)
		vds = append(vds, vd)
	}
	start := time.Now()
	jrs, err := r.eng.Run(ctx, jobs)
	if err != nil {
		return fmt.Errorf("reconciler: revalidation: %w", err)
	}
	cr.JobResults = jrs
	cr.Stats = pipeline.Summarize(jrs, time.Since(start))
	for i, jr := range jrs {
		vds[i].keys = jr.Keys
	}
	return nil
}

// observedCLI rebuilds the device's observed CLI lines (comments
// excluded) from its desired state and classified drift, in a
// deterministic order independent of how the device rendered them.
func observedCLI(fd *fleetDevice, drift []DriftItem) []string {
	gone := map[string]int{}
	var skewed []string
	for _, it := range drift {
		switch it.Class {
		case DriftMissingCLI:
			gone[it.Line]++
		case DriftParamSkew:
			gone[it.Line]++
			skewed = append(skewed, it.Observed)
		case DriftExtraCLI:
			if !strings.HasPrefix(it.Line, "!") {
				skewed = append(skewed, it.Line)
			}
		}
	}
	var lines []string
	for _, dl := range fd.desired {
		if dl.corpus < 0 {
			continue
		}
		if gone[dl.line] > 0 {
			gone[dl.line]--
			continue
		}
		lines = append(lines, dl.line)
	}
	sort.Strings(skewed)
	return append(lines, skewed...)
}

// buildPlan turns the cycle's drift into the deterministic remediation
// plan. Exceeding the failure budget defers the whole plan: too much of
// the fleet is dark to trust the observed view.
func (r *Reconciler) buildPlan(cr *CycleResult) *Plan {
	p := &Plan{
		Schema:   PlanSchema,
		Seed:     r.cfg.Spec.Seed,
		Cycle:    cr.Cycle,
		Scenario: r.cfg.Spec.Scenario.Name,
		Devices:  len(r.fleet.devices),
		Vendors:  append([]string(nil), r.cfg.Spec.Vendors...),
		Health: PlanHealth{
			Converged:   cr.Health[HealthConverged],
			Drifted:     cr.Health[HealthDrifted],
			Degraded:    cr.Health[HealthDegraded],
			Unreachable: cr.Health[HealthUnreachable],
		},
		Actions: []PlanAction{},
	}
	for i := range cr.Reports {
		rep := &cr.Reports[i]
		for _, it := range rep.Drift {
			p.Actions = append(p.Actions, PlanAction{
				Device:   rep.Device,
				Vendor:   rep.Vendor,
				Class:    string(it.Class),
				Op:       opFor(it.Class),
				Line:     it.Line,
				Observed: it.Observed,
			})
		}
	}
	sortActions(p.Actions)
	if r.cfg.FailureBudget >= 0 && cr.Health[HealthUnreachable] > r.cfg.FailureBudget {
		p.Deferred = true
		telemetry.GetCounter("nassim_reconcile_plans_deferred_total").Inc()
	}
	return p
}

// export publishes the cycle's health summary and drift counts.
func (r *Reconciler) export(cr *CycleResult) {
	telemetry.GetCounter("nassim_reconcile_cycles_total").Inc()
	for _, h := range HealthStates() {
		telemetry.GetGauge("nassim_reconcile_fleet_devices", "state", string(h)).Set(float64(cr.Health[h]))
	}
	for i := range cr.Reports {
		for _, it := range cr.Reports[i].Drift {
			telemetry.GetCounter("nassim_reconcile_drift_total", "class", string(it.Class)).Inc()
		}
	}
}

// probeQuantiles computes the cycle's probe-latency p50/p99 by nearest
// rank.
func probeQuantiles(reports []DeviceReport) (p50, p99 time.Duration) {
	if len(reports) == 0 {
		return 0, 0
	}
	lats := make([]time.Duration, len(reports))
	for i := range reports {
		lats[i] = reports[i].Latency
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	rank := func(q float64) time.Duration {
		i := int(q*float64(len(lats))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lats) {
			i = len(lats) - 1
		}
		return lats[i]
	}
	return rank(0.50), rank(0.99)
}
