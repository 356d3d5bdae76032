package nassim

import (
	"context"

	"nassim/internal/obsreport"
	"nassim/internal/reconciler"
)

// This file is the public fleet-reconciliation surface: the continuous
// control loop (internal/reconciler) that holds a simulated fleet to the
// desired state an assimilation run derived, detects drift, re-validates
// only the invalidated pipeline stages, and emits deterministic
// remediation plans. It is read-only by construction — the reconciler
// proposes, it never pushes.

// Fleet-reconciliation types re-exported from internal/reconciler.
type (
	// FleetSpec declares a simulated fleet: size, vendors, seed, and the
	// chaos scenario it runs under.
	FleetSpec = reconciler.FleetSpec
	// FleetScenario is a named, seeded chaos profile for a whole fleet:
	// pure functions from (seed, device, fleet size) to per-device
	// transport faults and planted drift.
	FleetScenario = reconciler.Scenario
	// FleetDriftSpec is the drift a scenario plants on one device.
	FleetDriftSpec = reconciler.DriftSpec
	// FleetReconciler is the continuous desired-vs-observed control loop.
	FleetReconciler = reconciler.Reconciler
	// ReconcilerConfig tunes a FleetReconciler.
	ReconcilerConfig = reconciler.Config
	// ReconcileCycle is everything one reconcile cycle learned.
	ReconcileCycle = reconciler.CycleResult
	// ReconcileReport is one device's outcome in one cycle.
	ReconcileReport = reconciler.DeviceReport
	// ReconcilePlan is the cycle's deterministic remediation proposal.
	ReconcilePlan = reconciler.Plan
	// ReconcilePlanAction is one proposed remediation step.
	ReconcilePlanAction = reconciler.PlanAction
	// FleetHealth classifies one device's state after a probe.
	FleetHealth = reconciler.Health
	// DriftClass labels one kind of desired-vs-observed divergence.
	DriftClass = reconciler.DriftClass
	// FleetTransport selects how a simulated fleet is served (TCP
	// listeners or in-process pipes).
	FleetTransport = reconciler.Transport
)

// The fleet transports. TCP (the default) serves each device on its own
// loopback listener; Pipe serves devices over in-process net.Pipe
// connections, costing no file descriptors, so fleets scale past the
// per-process FD limit. Probes and plans are byte-identical across both.
const (
	FleetTransportTCP  = reconciler.TransportTCP
	FleetTransportPipe = reconciler.TransportPipe
)

// The fleet health states, in per-device precedence order.
const (
	FleetConverged   = reconciler.HealthConverged
	FleetDrifted     = reconciler.HealthDrifted
	FleetDegraded    = reconciler.HealthDegraded
	FleetUnreachable = reconciler.HealthUnreachable
)

// The drift classes a reconcile cycle distinguishes.
const (
	DriftMissingCLI   = reconciler.DriftMissingCLI
	DriftExtraCLI     = reconciler.DriftExtraCLI
	DriftParamSkew    = reconciler.DriftParamSkew
	DriftFirmwareSkew = reconciler.DriftFirmwareSkew
)

// ReconcilePlanSchema identifies the remediation plan's JSON layout.
const ReconcilePlanSchema = reconciler.PlanSchema

// NewFleetReconciler derives the fleet's desired state through the
// assimilation pipeline (cache-keyed, so later cycles re-run only what
// drift invalidates), then builds and serves the simulated fleet. Close
// the reconciler to tear the fleet down.
func NewFleetReconciler(ctx context.Context, cfg ReconcilerConfig) (*FleetReconciler, error) {
	return reconciler.New(ctx, cfg)
}

// FleetScenarioByName resolves a named scenario; unknown names return an
// error listing the valid set.
func FleetScenarioByName(name string) (FleetScenario, error) {
	return reconciler.ScenarioByName(name)
}

// ChaosProfileNames lists the names accepted by ChaosProfileByName — the
// scenario library's names, shared by `nassim run -chaos-profile` and
// `nassim reconcile -chaos-profile`.
func ChaosProfileNames() []string { return reconciler.ScenarioNames() }

// ReconcileRecorder snapshots process state so a reconcile run can emit a
// run manifest (schema RunReportSchema) with a Reconcile block. Create it
// before the first cycle, Build after the last.
type ReconcileRecorder struct{ c *obsreport.Collector }

// NewReconcileRecorder starts recording.
func NewReconcileRecorder() *ReconcileRecorder {
	return &ReconcileRecorder{c: obsreport.NewCollector()}
}

// Build assembles the reconcile run's manifest from its final cycle. The
// job records are the revalidation pipeline's per-vendor results; the
// Reconcile block summarizes fleet health, drift, and cache economy.
// invalidated totals the artifacts evicted across all cycles.
func (rr *ReconcileRecorder) Build(cfg ReconcilerConfig, last *ReconcileCycle, cycles, invalidated int) *RunReport {
	info := obsreport.RunInfo{
		Vendors: last.Plan.Vendors, Workers: cfg.Workers,
		Scale: cfg.Spec.Scale, Seed: cfg.Spec.Seed,
		Validate: true, Chaos: cfg.Spec.Scenario.Name != "",
	}
	m := rr.c.Build(info, last.JobResults)
	health := map[string]int{}
	for h, n := range last.Health {
		health[string(h)] = n
	}
	drift := map[string]int{}
	for i := range last.Reports {
		for _, it := range last.Reports[i].Drift {
			drift[string(it.Class)]++
		}
	}
	m.Reconcile = &obsreport.ReconcileSummary{
		Scenario: last.Plan.Scenario, Devices: last.Plan.Devices,
		Cycles: cycles, Health: health, Drift: drift,
		Invalidated: invalidated, CacheHitRatio: last.CacheHitRatio(),
		PlanActions: len(last.Plan.Actions), PlanDeferred: last.Plan.Deferred,
	}
	return m
}

// ChaosProfileByName resolves a named chaos profile to a single-transport
// profile seeded with seed. "standard" and "dead" keep their historical
// single-device shapes; every other scenario contributes its device-0
// transport. Unknown names return the scenario library's error, which
// lists the valid set.
func ChaosProfileByName(name string, seed uint64) (ChaosProfile, error) {
	switch name {
	case "standard":
		return StandardChaosProfile(seed), nil
	case "dead":
		return DeadDeviceProfile(), nil
	}
	sc, err := reconciler.ScenarioByName(name)
	if err != nil {
		return ChaosProfile{}, err
	}
	return sc.Transport(seed, 0, 1), nil
}
