package nassim_test

// Front-end benchmarks (make bench-frontend): manual parsing, template
// compilation, and empirical config matching — the §3/§4 half of the
// pipeline. With NASSIM_BENCH_DIR set, results are exported as
// BENCH_frontend.json including derived seed-vs-new speedups, comparable
// across PRs like the other BENCH_*.json documents. Every parse row runs
// the one production parser, so parse_speedup_8v1 is same-code scaling
// from 1 to 8 workers (clamped to GOMAXPROCS). The "seed" side of
// parse_validate_* pairs the 1-worker parse with the naive validator
// oracle, so that speedup measures the validator's algorithmic wins (memo
// tables, compiled-template cache, candidate pruning) plus the worker
// pools, with the cores to use them.

import (
	"context"
	"sync"
	"testing"

	"nassim"
	"nassim/internal/benchdiff"
	"nassim/internal/cgm"
	"nassim/internal/empirical"
	"nassim/internal/pipeline"
	"nassim/internal/telemetry"
)

var (
	frontendBenchMu   sync.Mutex
	frontendBenchRows = map[string]benchdiff.Row{} // ns/op rows by benchmark name
	frontendMeasured  = map[string]benchdiff.Row{} // recordFrontendRow rows by row name
)

// recordFrontendRow adds a directly-measured derived row (a worker pool's
// busy-time utilization, the per-artifact decode time) to the export
// document.
func recordFrontendRow(r benchdiff.Row) {
	if benchDir == "" {
		return
	}
	frontendBenchMu.Lock()
	defer frontendBenchMu.Unlock()
	frontendMeasured[r.Name] = r
}

// utilizationRow is a worker pool's busy-time utilization: a collapse
// means the fan-out exists but its workers starve.
func utilizationRow(key string, util float64) benchdiff.Row {
	return benchdiff.Row{Name: "derived." + key, Unit: "ratio", Better: benchdiff.Higher, Value: util}
}

// derivedNSRow is a derived timing; it gates like any other timing.
func derivedNSRow(name string, ns float64) benchdiff.Row {
	return benchdiff.Row{Name: "derived." + name, Unit: "ns", Better: benchdiff.Lower, Value: ns}
}

// speedupRow is a derived speedup ratio. Speedups swing with scheduler
// load far more than the utilization figures do (a fan-out near 1.0x can
// land either side of it run to run), so they take the wider speedup
// gate and only a real collapse fails.
func speedupRow(name string, x float64) benchdiff.Row {
	return benchdiff.Row{Name: "derived." + name, Unit: "x", Better: benchdiff.Higher, Value: x,
		Tol: benchdiff.SpeedupTolerance}
}

// exportFrontendBench records one benchmark result and rewrites the export
// document, so partial runs (CI smoke: one iteration of one benchmark)
// still produce a valid document.
func exportFrontendBench(b *testing.B, name string) {
	b.Helper()
	if benchDir == "" {
		return
	}
	frontendBenchMu.Lock()
	defer frontendBenchMu.Unlock()
	frontendBenchRows[name] = goBenchRow(b, name)
	get := func(name string) (float64, bool) {
		r, ok := frontendBenchRows[name]
		return r.Value, ok
	}
	rows := []benchdiff.Row{infoRow("setup.scale", "ratio", benchScale)}
	for _, r := range frontendBenchRows {
		rows = append(rows, r)
	}
	if w1, ok1 := get("ParseAll/workers1"); ok1 {
		if w8, ok8 := get("ParseAll/workers8"); ok8 && w8 > 0 {
			rows = append(rows, speedupRow("parse_speedup_8v1", w1/w8))
		}
	}
	if naive, okN := get("ValidateConfigs/naive"); okN {
		if w8, ok8 := get("ValidateConfigs/workers8"); ok8 && w8 > 0 {
			rows = append(rows, speedupRow("validate_speedup_seed_vs_8", naive/w8))
		}
	}
	if p1, ok := get("ParseAll/workers1"); ok {
		if vn, okN := get("ValidateConfigs/naive"); okN {
			if p8, ok8 := get("ParseAll/workers8"); ok8 {
				if v8, okV := get("ValidateConfigs/workers8"); okV && p8+v8 > 0 {
					rows = append(rows,
						derivedNSRow("parse_validate_seed_ns", p1+vn),
						derivedNSRow("parse_validate_new8_ns", p8+v8),
						speedupRow("parse_validate_speedup", (p1+vn)/(p8+v8)))
				}
			}
		}
	}
	if cold, okC := get("CompileTemplates/cold"); okC {
		if warm, okW := get("CompileTemplates/warm"); okW && warm > 0 {
			rows = append(rows, speedupRow("compile_speedup_warm_vs_cold", cold/warm))
		}
	}
	for _, r := range frontendMeasured {
		rows = append(rows, r)
	}
	writeBenchRows(b, "frontend", rows)
}

// BenchmarkParseAll parses all four vendor manuals per op through the
// production parser at 1 worker (on the calling goroutine) and at 8
// (clamped to GOMAXPROCS).
func BenchmarkParseAll(b *testing.B) {
	data := setup(b)
	for _, variant := range []struct {
		name    string
		workers int
	}{{"workers1", 1}, {"workers8", 8}} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			pages := 0
			for _, vendor := range nassim.Vendors() {
				pages += len(data[vendor].pages)
			}
			b.ReportMetric(float64(pages), "pages/op")
			// Accumulate the page pool's busy time across iterations: low
			// utilization at workers=8 is the ROADMAP item 4 diagnosis (the
			// fan-out exists but the workers starve). The derivation and key
			// are telemetry's — the same code path the run manifest uses, so
			// -profile-stages runs and this export report one number.
			var acc telemetry.UtilizationAccum
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, vendor := range nassim.Vendors() {
					pr, err := nassim.ParseManualWorkers(context.Background(), vendor, data[vendor].pages, variant.workers)
					if err != nil {
						b.Fatal(err)
					}
					if len(pr.Corpora) == 0 {
						b.Fatal("no corpora")
					}
					acc.Add(pr.Pool)
				}
			}
			if util, ok := acc.Utilization(); ok {
				b.ReportMetric(util, "utilization")
				recordFrontendRow(utilizationRow(telemetry.UtilizationKey(string(pipeline.StageParse), variant.workers), util))
			}
			exportFrontendBench(b, "ParseAll/"+variant.name)
		})
	}
}

// BenchmarkDecodeArtifact measures the warm path's artifact decode in
// isolation: a cold pipeline run mirrors every vendor's parse and derive
// artifact to disk; the measured loop then decodes the stored blobs
// through the wired nassim-art binary codecs — no hashing, no disk I/O,
// no stage execution. decode_ns_per_artifact is the derived per-blob
// timing the benchdiff gate watches.
func BenchmarkDecodeArtifact(b *testing.B) {
	data := setup(b)
	eng, err := pipeline.New(pipeline.Config{CacheDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	var jobs []pipeline.Job
	for _, vendor := range nassim.Vendors() {
		jobs = append(jobs, pipeline.Job{Vendor: vendor, Pages: data[vendor].pages})
	}
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		b.Fatal(err)
	}
	var arts []pipeline.StoredArtifact
	var stored int64
	for _, job := range jobs {
		as, err := eng.StoredArtifacts(job)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range as {
			stored += int64(len(a.Data))
		}
		arts = append(arts, as...)
	}
	if want := 2 * len(jobs); len(arts) != want {
		b.Fatalf("disk mirror holds %d artifact(s), want %d", len(arts), want)
	}
	b.ReportMetric(float64(len(arts)), "artifacts/op")
	b.ReportMetric(float64(stored), "bytes/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range arts {
			if err := pipeline.DecodeStoredArtifact(a); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	perArtifact := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(len(arts))
	b.ReportMetric(perArtifact, "ns/artifact")
	recordFrontendRow(derivedNSRow("decode_ns_per_artifact", perArtifact))
	exportFrontendBench(b, "DecodeArtifact")
}

// BenchmarkCompileTemplates builds the CGM index over every vendor's
// corpora per op. cold empties the compiled-template cache each iteration;
// warm reuses it — the cross-corpora/cross-vendor hit path.
func BenchmarkCompileTemplates(b *testing.B) {
	data := setup(b)
	var all []string
	for _, vendor := range nassim.Vendors() {
		for _, c := range data[vendor].asr.Parsed.Corpora {
			all = append(all, c.PrimaryCLI())
		}
	}
	compile := func() {
		ix := cgm.NewIndex()
		for j, tmpl := range all {
			_ = ix.Add(nassim.CorpusID(j), tmpl, nil)
		}
	}
	b.ReportMetric(float64(len(all)), "templates/op")
	for _, variant := range []string{"cold", "warm"} {
		variant := variant
		b.Run(variant, func(b *testing.B) {
			if variant == "warm" {
				compile() // prime the cache
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if variant == "cold" {
					b.StopTimer()
					cgm.ResetTemplateCache()
					b.StartTimer()
				}
				compile()
			}
			exportFrontendBench(b, "CompileTemplates/"+variant)
		})
	}
}

// BenchmarkValidateConfigs matches the paper-scale Huawei config corpus
// (§7.2 skew: many files, few distinct templates) against the VDM: the
// retained naive reference, the memoized path sequential, and the memoized
// path with the 8-file-worker pool.
func BenchmarkValidateConfigs(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	files, ok := nassim.SyntheticConfigs(d.model, 1.0)
	if !ok {
		b.Fatal("no Huawei config corpus")
	}
	lines := 0
	for _, f := range files {
		lines += len(f.Lines)
	}
	run := func(b *testing.B, fn func() *nassim.EmpiricalReport) {
		b.ReportMetric(float64(lines), "lines/op")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rep := fn(); rep.MatchingRatio() != 1.0 {
				b.Fatalf("ratio = %f", rep.MatchingRatio())
			}
		}
	}
	ctx := context.Background()
	b.Run("naive", func(b *testing.B) {
		run(b, func() *nassim.EmpiricalReport {
			return empirical.ValidateConfigsNaive(ctx, d.asr.VDM, files)
		})
		exportFrontendBench(b, "ValidateConfigs/naive")
	})
	b.Run("workers1", func(b *testing.B) {
		run(b, func() *nassim.EmpiricalReport {
			return nassim.ValidateConfigsWorkers(ctx, d.asr.VDM, files, 1)
		})
		exportFrontendBench(b, "ValidateConfigs/workers1")
	})
	b.Run("workers8", func(b *testing.B) {
		var acc telemetry.UtilizationAccum
		run(b, func() *nassim.EmpiricalReport {
			rep := nassim.ValidateConfigsWorkers(ctx, d.asr.VDM, files, 8)
			acc.Add(rep.Pool)
			return rep
		})
		if util, ok := acc.Utilization(); ok {
			b.ReportMetric(util, "utilization")
			recordFrontendRow(utilizationRow(telemetry.UtilizationKey("validate", 8), util))
		}
		exportFrontendBench(b, "ValidateConfigs/workers8")
	})
}
