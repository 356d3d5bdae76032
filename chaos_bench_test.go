package nassim_test

import (
	"sort"
	"testing"
	"time"

	"nassim"
	"nassim/internal/benchdiff"
	"nassim/internal/telemetry"
)

// BenchmarkChaosExec measures the resilient exec path under the standard
// chaos profile (5% resets, 10% 200ms latency spikes, one flap window):
// each iteration is one show-command exchange through retry, breaker, and
// replay. The interesting outputs are the latency tail the injected
// faults produce and how many retries absorbed them, exported as
// BENCH_chaos.json (make bench-chaos).
func BenchmarkChaosExec(b *testing.B) {
	m, err := nassim.SyntheticModel("Cisco", 0.02)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := nassim.NewDevice(m)
	if err != nil {
		b.Fatal(err)
	}
	srv, fl, err := nassim.ServeDeviceChaos(dev, "127.0.0.1:0", nassim.StandardChaosProfile(17))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	rc := nassim.DialDeviceResilient(srv.Addr(), nassim.ResilientOptions{
		Seed: 17, Retry: nassim.RetryPolicy{Budget: -1}})
	defer rc.Close()

	show := dev.ShowConfigCommand()
	retryCounter := telemetry.GetCounter("nassim_device_retries_total")
	retriesBefore := retryCounter.Value()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := rc.Exec(show); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()

	retries := retryCounter.Value() - retriesBefore
	p50, p99 := latencyQuantiles(lat)
	b.ReportMetric(float64(p50.Microseconds())/1e3, "p50_ms")
	b.ReportMetric(float64(p99.Microseconds())/1e3, "p99_ms")
	b.ReportMetric(float64(retries)/float64(b.N), "retries/op")
	exportChaosBench(b, lat, p50, p99, retries, fl.Stats())
}

// latencyQuantiles returns the p50 and p99 of the sample (nearest-rank).
func latencyQuantiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	return rank(0.50), rank(0.99)
}

func exportChaosBench(b *testing.B, lat []time.Duration, p50, p99 time.Duration,
	retries int64, stats nassim.ChaosStats) {
	b.Helper()
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
	timing := func(name string, v float64) benchdiff.Row {
		return benchdiff.Row{Name: name, Unit: "ms", Better: benchdiff.Lower, Value: v}
	}
	writeBenchRows(b, "chaos", []benchdiff.Row{
		timing("exec_p50_ms", ms(p50)),
		timing("exec_p99_ms", ms(p99)),
		timing("exec_mean_ms", ms(total)/float64(len(lat))),
		{Name: "retries", Unit: "count", Better: benchdiff.Lower, Value: float64(retries)},
		infoRow("n", "count", float64(len(lat))),
		infoRow("faults.connections", "count", float64(stats.Conns)),
		infoRow("faults.dropped", "count", float64(stats.Dropped)),
		infoRow("faults.resets", "count", float64(stats.Resets)),
		infoRow("faults.latency_spikes", "count", float64(stats.Spikes)),
	})
}
