package nassim_test

import (
	"context"
	"testing"
	"time"

	"nassim"
	"nassim/internal/benchdiff"
)

// BenchmarkReconcileFleet measures one reconcile cycle over a 64-device
// mixed-vendor fleet running the combined churn+skew+flap scenario: probe
// every device through its resilient client, classify drift, re-validate
// only the invalidated pipeline stages, and build the plan. The first
// (unmeasured) cycle warms the artifact cache, so measured cycles show the
// steady-state economy. The figures export as BENCH_reconcile.json (make
// bench-reconcile).
func BenchmarkReconcileFleet(b *testing.B) {
	sc, err := nassim.FleetScenarioByName("churn+skew+flap")
	if err != nil {
		b.Fatal(err)
	}
	const devices = 64
	ctx := context.Background()
	r, err := nassim.NewFleetReconciler(ctx, nassim.ReconcilerConfig{
		Spec:        nassim.FleetSpec{Devices: devices, Scale: 0.02, Seed: 17, Scenario: sc},
		MaxParallel: 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if _, err := r.RunCycle(ctx); err != nil { // warm the artifact cache
		b.Fatal(err)
	}

	cycleLat := make([]time.Duration, 0, b.N)
	var last *nassim.ReconcileCycle
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		cr, err := r.RunCycle(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cycleLat = append(cycleLat, cr.Wall)
		last = cr
	}
	elapsed := time.Since(start)
	b.StopTimer()

	p50, _ := latencyQuantiles(cycleLat)
	var total time.Duration
	for _, d := range cycleLat {
		total += d
	}
	meanMs := float64(total.Microseconds()) / 1e3 / float64(len(cycleLat))
	probesPerSec := float64(devices*b.N) / elapsed.Seconds()
	b.ReportMetric(float64(p50.Microseconds())/1e3, "cycle_p50_ms")
	b.ReportMetric(probesPerSec, "probes/sec")
	b.ReportMetric(last.CacheHitRatio(), "cache_hit_ratio")

	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	// Cycle and probe timings come from a handful of cycles, so they
	// gate like single-shot measurements with a millisecond floor.
	timing := func(name string, v float64) benchdiff.Row {
		return benchdiff.Row{Name: name, Unit: "ms", Better: benchdiff.Lower, Value: v,
			Tol: benchdiff.SingleShotTolerance, Floor: benchdiff.SingleShotFloorMs}
	}
	writeBenchRows(b, "reconcile", []benchdiff.Row{
		timing("cycle_p50_ms", ms(p50)),
		timing("cycle_mean_ms", meanMs),
		timing("probe_p50_ms", ms(last.ProbeP50)),
		timing("probe_p99_ms", ms(last.ProbeP99)),
		{Name: "probes_per_sec", Unit: "1/s", Better: benchdiff.Higher, Value: probesPerSec,
			Tol: benchdiff.SpeedupTolerance},
		// The cache economy and fleet health are seeded and deterministic:
		// any unreachable device is a robustness regression, and a cache-hit
		// collapse means revalidation stopped being incremental.
		{Name: "cache_hit_ratio", Unit: "ratio", Better: benchdiff.Higher, Value: last.CacheHitRatio()},
		{Name: "health.unreachable", Unit: "count", Better: benchdiff.Lower,
			Value: float64(last.Health[nassim.FleetUnreachable])},
		infoRow("n", "count", float64(len(cycleLat))),
		infoRow("devices", "count", devices),
		infoRow("drift_actions", "count", float64(len(last.Plan.Actions))),
		infoRow("health.converged", "count", float64(last.Health[nassim.FleetConverged])),
		infoRow("health.drifted", "count", float64(last.Health[nassim.FleetDrifted])),
		infoRow("health.degraded", "count", float64(last.Health[nassim.FleetDegraded])),
	})
}
