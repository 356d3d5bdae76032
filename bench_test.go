package nassim_test

// One benchmark per evaluation artifact of the paper (see DESIGN.md's
// per-experiment index):
//
//	BenchmarkParseManual/*          E1/E9: manual parsing per vendor
//	BenchmarkSyntaxValidation       E4/§5.1: formal syntax validation (Table 4 invalid row)
//	BenchmarkCGMConstruction/*      E4: CGM generation — the dominant cost in Table 4's construction time
//	BenchmarkInstanceMatching       E5/Figure 6: Algorithm 1 instance-template matching
//	BenchmarkHierarchyDerivation/*  E4: §5.2 derivation (Table 4 construction time)
//	BenchmarkEmpiricalValidation    E6/Figure 8: config-file validation (Table 4 matching ratio)
//	BenchmarkDeviceExec             E6/§5.3: live-device instance testing loop
//	BenchmarkMapperRecommend/*      E7: one Table 5 cell (per-parameter recommendation)
//	BenchmarkFineTune               E7: §6.3 NetBERT domain adaptation
//	BenchmarkEndToEndAssimilation   E8: the full pipeline the 9.1x headline measures

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nassim"
	"nassim/internal/benchdiff"
	"nassim/internal/cgm"
	"nassim/internal/clisyntax"
	"nassim/internal/devmodel"
	"nassim/internal/hierarchy"
	"nassim/internal/mapper"
	"nassim/internal/nlp"
	"nassim/internal/telemetry"
)

const benchScale = 0.05

type benchData struct {
	model *nassim.DeviceModel
	pages []nassim.Page
	asr   *nassim.AssimilationResult
	files []nassim.ConfigFile
	anns  []nassim.Annotation
}

var (
	benchOnce  sync.Once
	benchState map[string]*benchData
	benchUDM   *nassim.UDM
)

func setup(b *testing.B) map[string]*benchData {
	b.Helper()
	benchOnce.Do(func() {
		benchState = map[string]*benchData{}
		benchUDM = nassim.BuildUDM()
		for _, vendor := range nassim.Vendors() {
			m, err := nassim.SyntheticModel(vendor, benchScale)
			if err != nil {
				panic(err)
			}
			asr, err := nassim.AssimilateModel(context.Background(), m)
			if err != nil {
				panic(err)
			}
			d := &benchData{
				model: m,
				pages: nassim.SyntheticManual(m),
				asr:   asr,
				anns:  nassim.GroundTruthAnnotations(m, 100, 9),
			}
			if files, ok := nassim.SyntheticConfigs(m, benchScale); ok {
				d.files = files
			}
			benchState[vendor] = d
		}
	})
	return benchState
}

func BenchmarkParseManual(b *testing.B) {
	data := setup(b)
	for _, vendor := range nassim.Vendors() {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			pages := data[vendor].pages
			b.ReportMetric(float64(len(pages)), "pages/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nassim.ParseManual(context.Background(), vendor, pages); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSyntaxValidation(b *testing.B) {
	data := setup(b)
	corpora := data["Huawei"].asr.Parsed.Corpora
	b.ReportMetric(float64(len(corpora)), "templates/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range corpora {
			_ = clisyntax.Validate(corpora[j].PrimaryCLI())
		}
	}
}

func BenchmarkCGMConstruction(b *testing.B) {
	data := setup(b)
	for _, vendor := range []string{"Huawei", "Nokia"} {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			corpora := data[vendor].asr.Parsed.Corpora
			b.ReportMetric(float64(len(corpora)), "templates/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix := cgm.NewIndex()
				for j := range corpora {
					_ = ix.Add(nassim.CorpusID(j), corpora[j].PrimaryCLI(), nil)
				}
			}
		})
	}
}

func BenchmarkInstanceMatching(b *testing.B) {
	// The Figure 6 toy example: match instances against the filter-policy
	// template's CGM.
	g, err := cgm.FromTemplate(
		"filter-policy { <acl-number> | ip-prefix <ip-prefix-name> | acl-name <acl-name> } { import | export }", nil)
	if err != nil {
		b.Fatal(err)
	}
	instances := []string{
		"filter-policy acl-name acl1 export",
		"filter-policy 2000 import",
		"filter-policy ip-prefix pfx1 import",
		"filter-policy acl-name acl1 both", // reject path
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, inst := range instances {
			g.Match(inst)
		}
	}
}

func BenchmarkHierarchyDerivation(b *testing.B) {
	data := setup(b)
	for _, vendor := range []string{"Huawei", "Nokia"} {
		vendor := vendor
		b.Run(vendor, func(b *testing.B) {
			parsed := data[vendor].asr.Parsed
			edges := make([]hierarchy.Edge, len(parsed.Hierarchy))
			for i, e := range parsed.Hierarchy {
				edges[i] = hierarchy.Edge{Parent: e.Parent, Child: e.Child}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := hierarchy.Derive(context.Background(), vendor, parsed.Corpora, edges, nil)
				if len(v.Views) == 0 {
					b.Fatal("no views derived")
				}
			}
		})
	}
}

func BenchmarkEmpiricalValidation(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	lines := 0
	for _, f := range d.files {
		lines += len(f.Lines)
	}
	b.ReportMetric(float64(lines), "lines/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := nassim.ValidateConfigs(context.Background(), d.asr.VDM, d.files)
		if rep.MatchingRatio() != 1.0 {
			b.Fatalf("ratio = %f", rep.MatchingRatio())
		}
	}
}

func BenchmarkDeviceExec(b *testing.B) {
	data := setup(b)
	d := data["H3C"]
	dev, err := nassim.NewDevice(d.model)
	if err != nil {
		b.Fatal(err)
	}
	sess := dev.NewSession()
	inst := d.model.InstantiateMinimal(d.model.Commands[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Exec("return")
		if resp := sess.Exec(inst); !resp.OK {
			b.Fatal(resp.Msg)
		}
	}
}

func BenchmarkMapperRecommend(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	for _, kind := range []nassim.ModelKind{nassim.ModelIR, nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind)
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
		})
	}
}

func BenchmarkFineTune(b *testing.B) {
	data := setup(b)
	d := data["Nokia"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := nassim.NewMapper(benchUDM, nassim.ModelNetBERT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.FineTune(d.asr.VDM, benchUDM, d.anns, 10, 1, 9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndAssimilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		asr, err := nassim.AssimilateVendor(context.Background(), "H3C", 0.02)
		if err != nil {
			b.Fatal(err)
		}
		if len(asr.VDM.InvalidCLIs) != 0 {
			b.Fatal("corrections not applied")
		}
	}
}

func BenchmarkPipelineStages(b *testing.B) {
	// End-to-end assimilation with per-stage wall time, recorded under the
	// stage names of telemetry.StageTimer — the names cmd/evalbench's
	// BENCH_telemetry.json rows use, so stage timings stay comparable
	// across PRs.
	data := setup(b)
	d := data["Huawei"]
	st := telemetry.NewStageTimer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var parsed *nassim.ParseResult
		var err error
		st.Time(telemetry.StageParse, func() {
			parsed, err = nassim.ParseManual(context.Background(), "Huawei", d.pages)
		})
		if err != nil {
			b.Fatal(err)
		}
		first, firstRep := nassim.BuildVDM(context.Background(), "Huawei", parsed.Corpora, parsed.Hierarchy)
		st.Observe(telemetry.StageSyntaxCGM, firstRep.CGMBuildTime)
		st.Observe(telemetry.StageHierarchy, firstRep.DeriveTime)
		var v *nassim.VDM
		st.Time(telemetry.StageCorrect, func() {
			nassim.ApplyCorrections(parsed.Corpora, nassim.ExpertCorrections(d.model, first.InvalidCLIs))
			v, _ = nassim.BuildVDM(context.Background(), "Huawei", parsed.Corpora, parsed.Hierarchy)
		})
		st.Time(telemetry.StageEmpirical, func() {
			nassim.ValidateConfigs(context.Background(), v, d.files)
		})
	}
	b.StopTimer()
	for _, rec := range st.Records() {
		b.ReportMetric(float64(rec.AvgNS), rec.Name+"-ns/op")
	}
}

// benchDir is where the in-test emitters write their BENCH_<suite>.json
// row lists (nassim-bench/v2; see internal/benchdiff). Unset, the
// benchmarks only report to the test log.
var benchDir = os.Getenv("NASSIM_BENCH_DIR")

// writeBenchRows writes rows as $NASSIM_BENCH_DIR/BENCH_<suite>.json.
func writeBenchRows(b *testing.B, suite string, rows []benchdiff.Row) {
	b.Helper()
	if benchDir == "" {
		return
	}
	if err := benchdiff.WriteFile(filepath.Join(benchDir, "BENCH_"+suite+".json"), rows); err != nil {
		b.Fatal(err)
	}
}

// infoRow is a row that is reported when it moves but never gated.
func infoRow(name, unit string, v float64) benchdiff.Row {
	return benchdiff.Row{Name: name, Unit: unit, Better: benchdiff.Info, Value: v}
}

// goBenchRow is the ns/op row of the benchmark that just ran.
func goBenchRow(b *testing.B, name string) benchdiff.Row {
	return benchdiff.GoBench(name, float64(b.Elapsed().Nanoseconds())/float64(b.N), b.N)
}

// The mapper hot-path benchmarks export BENCH_mapper.json after every
// benchmark, so the perf trajectory of the vectorized scorer is tracked
// across PRs like the other BENCH_*.json documents.
var (
	mapperBenchMu   sync.Mutex
	mapperBenchRows = map[string]benchdiff.Row{}
)

func exportMapperBench(b *testing.B, name string) {
	b.Helper()
	if benchDir == "" {
		return
	}
	mapperBenchMu.Lock()
	defer mapperBenchMu.Unlock()
	mapperBenchRows[name] = goBenchRow(b, name)
	rows := []benchdiff.Row{infoRow("setup.scale", "ratio", benchScale)}
	for _, r := range mapperBenchRows {
		rows = append(rows, r)
	}
	writeBenchRows(b, "mapper", rows)
}

// BenchmarkRecommend measures the vectorized Equation 2 hot path: one
// top-10 recommendation through the precombined UDM matrices (pure DL
// scores the full tree; IR+DL shortlists through the inverted index and
// re-ranks with KV dots per candidate).
func BenchmarkRecommend(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	for _, kind := range []nassim.ModelKind{nassim.ModelIR, nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind)
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
			exportMapperBench(b, "Recommend/"+string(kind))
		})
	}
	// Float-reference rows: the same DL paths with the int8-quantized
	// candidate prune disabled — the before/after pair for the quantized
	// scorer lives in one BENCH_mapper.json.
	for _, kind := range []nassim.ModelKind{nassim.ModelSBERT, nassim.ModelIRSBERT} {
		kind := kind
		b.Run(string(kind)+"-float", func(b *testing.B) {
			m, err := nassim.NewMapper(benchUDM, kind, nassim.WithFloatScoring())
			if err != nil {
				b.Fatal(err)
			}
			ctx := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if recs := m.Recommend(ctx, 10); len(recs) == 0 {
					b.Fatal("no recommendations")
				}
			}
			exportMapperBench(b, "Recommend/"+string(kind)+"-float")
		})
	}
}

// BenchmarkMapAll measures the parallel batch path: 100 parameter
// contexts fanned across the bounded worker pool with order-stable
// output — the shape the pipeline's map_to_udm stage runs.
func BenchmarkMapAll(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	m, err := nassim.NewMapper(benchUDM, nassim.ModelIRSBERT)
	if err != nil {
		b.Fatal(err)
	}
	pcs := make([]nassim.ParamContext, 0, 100)
	for i := 0; len(pcs) < 100; i++ {
		pcs = append(pcs, nassim.ExtractContext(d.asr.VDM, d.anns[i%len(d.anns)].Param))
	}
	b.ReportMetric(float64(len(pcs)), "params/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := m.MapAll(context.Background(), pcs, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(pcs) {
			b.Fatal("short batch")
		}
	}
	exportMapperBench(b, "MapAll")
}

// BenchmarkTFIDFRank measures the IR fast path in isolation: one top-50
// shortlist query against the UDM corpus through the inverted index and
// accumulator scorer.
func BenchmarkTFIDFRank(b *testing.B) {
	data := setup(b)
	d := data["Huawei"]
	docs := make([][]string, benchUDM.Len())
	for i := range docs {
		docs[i] = nlp.Tokenize(strings.Join(benchUDM.Context(i), " "))
	}
	idx := nlp.NewTFIDF(docs)
	pc := nassim.ExtractContext(d.asr.VDM, d.anns[0].Param)
	query := nlp.Tokenize(strings.Join(pc.Sequences, " "))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ranked := idx.Rank(query, 50); len(ranked) == 0 {
			b.Fatal("empty ranking")
		}
	}
	exportMapperBench(b, "TFIDFRank")
}

func BenchmarkWeightGridSearch(b *testing.B) {
	// A1 ablation cost: 243 weight combinations over precomputed cosines.
	data := setup(b)
	d := data["Nokia"]
	enc := nlp.NewSBERT(nassim.EncoderDim, devmodel.GeneralSynonyms())
	we := mapper.BuildWeightEvals(benchUDM, enc, d.asr.VDM, d.anns, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapper.GridSearchWeights(we, []float64{0.25, 1, 4}, 1, []int{1, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkYANGBridge(b *testing.B) {
	// E10 cost: parse + bridge the vendor's YANG module set.
	data := setup(b)
	sources := nassim.SyntheticYANG(data["Huawei"].model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var modules []*nassim.YANGModule
		for _, src := range sources {
			m, err := nassim.ParseYANG(src.Text)
			if err != nil {
				b.Fatal(err)
			}
			modules = append(modules, m)
		}
		if res := nassim.BridgeYANG("Huawei", modules); len(res.Corpora) == 0 {
			b.Fatal("empty bridge")
		}
	}
}

func BenchmarkNetconfEditConfig(b *testing.B) {
	// §8.1: one schema-validated edit-config round trip over TCP.
	data := setup(b)
	var modules []*nassim.YANGModule
	for _, src := range nassim.SyntheticYANG(data["Huawei"].model) {
		m, err := nassim.ParseYANG(src.Text)
		if err != nil {
			b.Fatal(err)
		}
		modules = append(modules, m)
	}
	store := nassim.NewNetconfStore(modules)
	srv, err := nassim.ServeNetconf(store, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cl, err := nassim.DialNetconf(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	var ns string
	var leaf nassim.YANGLeaf
	for _, m := range modules {
		ls := m.Leaves()
		if len(ls) > 0 {
			ns, leaf = m.Namespace, ls[0]
			break
		}
	}
	value := "test1"
	if leaf.Type == "uint32" {
		value = "3"
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.EditConfig(ns, leaf.Path, leaf.Name, value); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntentPush(b *testing.B) {
	// E12: one UDM intent translated, navigated, pushed and verified.
	data := setup(b)
	d := data["Huawei"]
	binding := nassim.BindingFromAnnotations(d.anns)
	dev, err := nassim.NewDevice(d.model)
	if err != nil {
		b.Fatal(err)
	}
	ctrl := nassim.NewController(3)
	if err := nassim.RegisterDevice(ctrl, "bench-dev", "Huawei", d.asr.VDM, binding,
		nassim.SessionExecutor(dev.NewSession()), dev.ShowConfigCommand()); err != nil {
		b.Fatal(err)
	}
	var intent nassim.Intent
	for id := range binding {
		if strings.HasSuffix(id, "-time") || strings.HasSuffix(id, "-limit") {
			intent = nassim.Intent{AttrID: id, Value: "7"}
			break
		}
	}
	if intent.AttrID == "" {
		b.Skip("no int-typed bound attribute")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Apply("bench-dev", intent); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssimilateParallel measures the engine over the four built-in
// vendors with a 4-worker pool and exports BENCH_pipeline.json: per-stage
// wall time plus the run's wall time, comparable across PRs like
// BENCH_telemetry.json.
func BenchmarkAssimilateParallel(b *testing.B) {
	const workers = 4
	timer := nassim.NewStageTimer()
	var stats nassim.PipelineStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nassim.Assimilate(context.Background(), nassim.Options{
			Scale: benchScale, Workers: workers, Validate: true,
			StageHook: func(_ string, stage nassim.PipelineStage) func() { return timer.Start(string(stage)) },
		})
		if err != nil {
			b.Fatal(err)
		}
		stats = res.Stats
	}
	b.StopTimer()
	b.ReportMetric(float64(stats.Runs()), "stages/op")
	// The wall time comes from one run, so it gates like the stage rows.
	writeBenchRows(b, "pipeline", append(timer.BenchRows(),
		benchdiff.Row{Name: "wall_ns", Unit: "ns", Better: benchdiff.Lower, Value: float64(stats.Wall.Nanoseconds()),
			Tol: benchdiff.SingleShotTolerance, Floor: benchdiff.SingleShotFloorNS},
		infoRow("jobs", "count", float64(stats.Jobs)),
		infoRow("setup.scale", "ratio", benchScale),
		infoRow("setup.workers", "count", workers)))
}
