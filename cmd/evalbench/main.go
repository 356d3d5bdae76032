// Command evalbench regenerates the paper's evaluation artifacts: every
// data-bearing table (1, 2, 4, 5, 6) and the §7.3 headline acceleration.
//
// Usage:
//
//	evalbench -table 4 -scale 0.1      # Table 4 at a tenth of paper scale
//	evalbench -table 5                 # Table 5 (Mapper, paper protocol)
//	evalbench -table 6                 # appendix Table 6 (dense k grid + MRR)
//	evalbench -headline                # recall@10 -> acceleration factor
//	evalbench -stages                  # per-stage timing table + BENCH_telemetry.json
//	evalbench -all -scale 0.1          # everything
//
// Run without flags, evalbench times the pipeline stages (equivalent to
// -stages). Scale 1.0 reproduces the paper-scale corpora (12 874 Huawei
// commands, 14 046 Nokia, ...); smaller scales run the same pipeline on
// proportionally smaller models.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"nassim"
	"nassim/internal/benchdiff"
	"nassim/internal/eval"
	"nassim/internal/telemetry"
)

func main() {
	table := flag.Int("table", 0, "table to regenerate (1, 2, 4, 5 or 6)")
	headline := flag.Bool("headline", false, "compute the 9.1x-style acceleration headline")
	all := flag.Bool("all", false, "regenerate every artifact")
	scale := flag.Float64("scale", 1.0, "corpus scale (1.0 = paper scale)")
	seed := flag.Uint64("seed", 77, "experiment seed")
	checks := flag.Bool("checks", false, "run the result-shape sanity checks on the mapper tables")
	yangExp := flag.Bool("yang", false, "run the E10 extension: CLI-manual vs native-YANG mapping")
	ablate := flag.Bool("ablate", false, "run the design-choice ablations (weights, context rows, epochs, negatives)")
	curve := flag.Bool("curve", false, "run the E11 continuous-improvement learning curve")
	stages := flag.Bool("stages", false, "time each pipeline stage and export BENCH_telemetry.json")
	vendor := flag.String("vendor", "Huawei", "vendor for the -stages pipeline run")
	telemetryOut := flag.String("telemetry-out", "BENCH_telemetry.json", "stage-timing export path for -stages")
	manifestOut := flag.String("manifest-out", "", "also write the -stages assimilation's run manifest (schema "+nassim.RunReportSchema+") to this file")
	jsonOut := flag.String("json", "", "also export the run's results as JSON to this file")
	flag.Parse()

	// Bare invocation: time the pipeline stages instead of printing usage.
	if !*all && *table == 0 && !*headline && !*yangExp && !*ablate && !*curve && !*stages {
		*stages = true
		if *scale == 1.0 {
			*scale = 0.1
		}
	}

	if *stages || *all {
		if err := runStages(*vendor, *scale, *seed, *telemetryOut, *manifestOut); err != nil {
			fmt.Fprintln(os.Stderr, "evalbench: stages:", err)
			os.Exit(1)
		}
		if !*all && *table == 0 && !*headline && !*yangExp && !*ablate && !*curve {
			return
		}
	}

	doc := &eval.ResultsDocument{Scale: *scale, Seed: *seed}
	defer func() {
		if *jsonOut == "" {
			return
		}
		data, err := doc.ExportJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "evalbench: export:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "evalbench: export:", err)
			os.Exit(1)
		}
		fmt.Println("wrote results to", *jsonOut)
	}()

	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "evalbench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *all || *table == 1 {
		fmt.Println(eval.FormatTable1(eval.Table1()))
	}
	if *all || *table == 2 {
		fmt.Println(eval.FormatTable2())
	}
	if *all || *table == 4 {
		run("table 4", func() error {
			rows, err := eval.Table4(*scale)
			if err != nil {
				return err
			}
			fmt.Println(eval.FormatTable4(rows))
			doc.Table4 = rows
			return nil
		})
	}
	if *all || *yangExp {
		run("yang experiment", func() error {
			cmp, err := eval.YANGExperiment("Huawei", *scale, *seed, nil)
			if err != nil {
				return err
			}
			fmt.Println(eval.FormatYANGComparison(cmp))
			return nil
		})
	}
	if *all || *ablate {
		run("ablations", func() error {
			rep, err := eval.Ablate("Nokia", *scale, *seed, nil)
			if err != nil {
				return err
			}
			fmt.Println(eval.FormatAblation(rep))
			return nil
		})
	}
	if *all || *curve {
		run("learning curve", func() error {
			ks := []int{1, 10}
			points, err := eval.LearningCurve("Nokia", *scale, *seed, 20, ks)
			if err != nil {
				return err
			}
			fmt.Println(eval.FormatLearningCurve("Nokia", points, ks))
			return nil
		})
	}
	needMapper := *all || *table == 5 || *table == 6 || *headline
	if needMapper {
		ks := eval.Table5Ks
		withMRR := false
		if *table == 6 || *all {
			ks = eval.Table6Ks
			withMRR = true
		}
		run("mapper evaluation", func() error {
			tasks, err := eval.MapperEval(eval.MapperOptions{
				Scale: *scale, Ks: ks, Seed: *seed})
			if err != nil {
				return err
			}
			doc.Mapper = tasks
			if *all || *table == 5 || *table == 6 {
				label := "Table 5"
				if withMRR {
					label = "Table 5/6"
				}
				fmt.Printf("%s: Mapper performance (scale %.2f)\n", label, *scale)
				fmt.Println(eval.FormatMapper(tasks, withMRR))
			}
			if *all || *headline {
				r10, accel := eval.Headline(tasks)
				doc.Headline = &eval.HeadlineDoc{Recall10: r10, Acceleration: accel}
				fmt.Printf("Headline: best NetBERT-family recall@10 on Huawei-UDM = %.1f%%\n", r10)
				fmt.Printf("          => engineers consult the manual %.1f%% of the time\n", 100-r10)
				fmt.Printf("          => mapping phase acceleration = %.1fx (paper: 89%% -> 9.1x)\n", accel)
			}
			if *checks || *all {
				v := eval.SanityChecks(tasks)
				doc.Checks = v
				if len(v) == 0 {
					fmt.Println("Result-shape sanity checks: all passed")
				} else {
					fmt.Println("Result-shape sanity checks: VIOLATIONS")
					for _, msg := range v {
						fmt.Println("  -", msg)
					}
				}
			}
			return nil
		})
	}
}

// runStages drives one synthetic assimilation with per-stage wall-clock
// timing — parse, syntax+CGM, hierarchy derivation (corrections folded
// in), empirical validation, mapper fine-tune and recommendation,
// controller intent — prints the timing table and exports
// BENCH_telemetry.json: the stage rows, the metric registry's samples
// and the setup, as a nassim-bench/v2 row list.
//
// The VDM-construction stages run through the pipeline engine, which
// caches the parse and syntax artifacts and derives the corrected VDM
// exactly once (the previous hand-sequenced flow rebuilt it twice).
func runStages(vendor string, scale float64, seed uint64, out, manifestOut string) error {
	ctx := context.Background()
	st := telemetry.NewStageTimer()
	res, err := nassim.Assimilate(ctx, nassim.Options{
		Vendors: []string{vendor}, Scale: scale, Validate: true,
		Seed: seed, Report: manifestOut != "",
		StageHook: func(_ string, stage nassim.PipelineStage) func() { return st.Start(string(stage)) },
	})
	if err != nil {
		return err
	}
	if manifestOut != "" && res.Report != nil {
		if err := res.Report.WriteFile(manifestOut); err != nil {
			return err
		}
		fmt.Printf("run manifest: %s (%s)\n", manifestOut, res.Report.Summary())
	}
	asr := res.Results[0]
	m, v := asr.Model, asr.VDM

	u := nassim.BuildUDM()
	mp, err := nassim.NewMapper(u, nassim.ModelIRNetBERT)
	if err != nil {
		return err
	}
	anns := nassim.GroundTruthAnnotations(m, 50, seed)
	st.Time(telemetry.StageMapFineTune, func() {
		_, err = mp.FineTune(v, u, anns, 4, 2, seed)
	})
	if err != nil {
		return err
	}
	recN := len(anns)
	if recN > 10 {
		recN = 10
	}
	st.Time(telemetry.StageMapRecommend, func() {
		pcs := make([]nassim.ParamContext, recN)
		for i, ann := range anns[:recN] {
			pcs[i] = nassim.ExtractContext(v, ann.Param)
		}
		_, err = mp.MapAll(ctx, pcs, 10)
	})
	if err != nil {
		return err
	}

	dev, err := nassim.NewDevice(m)
	if err != nil {
		return err
	}
	ctrl := nassim.NewController(seed)
	binding := nassim.BindingFromAnnotations(nassim.GroundTruthAnnotations(m, 200, seed))
	if err := nassim.RegisterDevice(ctrl, "bench-device", vendor, v, binding,
		nassim.SessionExecutor(dev.NewSession()), dev.ShowConfigCommand()); err != nil {
		return err
	}
	st.Time(telemetry.StageControllerInt, func() {
		ids := make([]string, 0, len(binding))
		for id := range binding {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			if _, aerr := ctrl.Apply("bench-device", nassim.Intent{AttrID: id, Value: "7"}); aerr == nil {
				break
			}
		}
	})

	fmt.Printf("Pipeline stage timing (%s, scale %.2f):\n%s", vendor, scale, st.Table())
	metrics := telemetry.Default().FlatSnapshot()
	rows := append(st.BenchRows(),
		benchdiff.Row{Name: "setup.scale", Unit: "ratio", Better: benchdiff.Info, Value: scale},
		benchdiff.Row{Name: "setup.seed", Unit: "id", Better: benchdiff.Info, Value: float64(seed)})
	for k, v := range metrics {
		rows = append(rows, registryRow(k, v))
	}
	if err := benchdiff.WriteFile(out, rows); err != nil {
		return err
	}
	fmt.Printf("wrote stage telemetry to %s (%d metric samples)\n\n", out, len(metrics))
	return nil
}

// registryRow turns one flattened registry sample into a benchdiff row.
// The snapshot mixes counters and duration histograms: a duration's sum
// or average gates as a timing — one run's histogram, not an average
// over b.N, so at the single-shot tolerance and floor — and every other
// sample is informational.
func registryRow(key string, v float64) benchdiff.Row {
	base := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		base = key[:i]
	}
	r := benchdiff.Row{Name: "metric." + key, Unit: "count", Better: benchdiff.Info, Value: v}
	if strings.Contains(base, "_seconds") &&
		(strings.HasSuffix(base, "_sum") || strings.HasSuffix(base, "_avg")) {
		r.Unit, r.Better = "s", benchdiff.Lower
		r.Tol, r.Floor = benchdiff.SingleShotTolerance, benchdiff.SingleShotFloorSeconds
	}
	return r
}
