package nassim_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"nassim"
	"nassim/internal/pipeline"
	"nassim/internal/vdm"
)

// mapAllDigests are sha256 digests over every (attribute index, score
// bits) pair that MapAll at top-10 returns for every parameter of the
// four built-in vendors at scale 0.05, recorded before the mapper's
// query path stopped re-deriving token vectors and building TF-IDF query
// maps. Unlike the naive-vs-fast goldens in internal/mapper, nothing here
// routes the expected side through the current Rank or Encode, so any
// change to a summation order or a cached value shows as a digest change.
var mapAllDigests = map[nassim.ModelKind]string{
	nassim.ModelIR:        "4565550a5368503bed81ed8c29e6dcc0049a62090b40ea8bf26bbc6b417989b6",
	nassim.ModelSimCSE:    "2a7cc8e8696791d1431d4a7b4f48124347dcc0a190045311d555bc6327d289b8",
	nassim.ModelSBERT:     "8e6bf4864ff4fdb8aaefbbe76905a4b4d8c661de3bba904a9e686ede4263d81c",
	nassim.ModelIRSBERT:   "1a00b373ff0f903c6fd86cad922f8637589473435aaf6e59c5d02500bdf018ff",
	nassim.ModelIRNetBERT: "b4712a89e1a1da1d6fb350082454f83b4405efce6e44fbdc78a24f444c3914a3",
}

// TestMapAllDigestFourVendors checks every mapper kind against its
// recorded digest twice: through MapAll directly, and through the
// engine's map_to_udm stage. All engine runs share one engine and one
// artifact store. The IR+NetBERT mappers first run untuned and are then
// fine-tuned in place, as §3.2's improvement loop retrains a live mapper
// under an unchanged name, so a stage keyed on anything less than the
// mapper's content would serve the tuned run the untuned answers.
func TestMapAllDigestFourVendors(t *testing.T) {
	if testing.Short() {
		t.Skip("four-vendor corpus in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes score
		// bits without changing the code.
		t.Skipf("score digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	ctx := context.Background()
	u := nassim.BuildUDM()
	eng, err := pipeline.New(pipeline.Config{Store: pipeline.NewMemStore()})
	if err != nil {
		t.Fatal(err)
	}
	var jobs []pipeline.Job
	var models []*nassim.DeviceModel
	for _, vendor := range nassim.Vendors() {
		model, err := nassim.SyntheticModel(vendor, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, model)
		jobs = append(jobs, pipeline.Job{
			Vendor: vendor,
			Pages:  nassim.SyntheticManual(model),
			Correct: func(flagged []vdm.InvalidCLI) []nassim.Correction {
				return nassim.ExpertCorrections(model, flagged)
			},
		})
	}
	// run sends the jobs through the engine, mapping vendor i with
	// mappers[i], or mapping nothing when mappers is nil.
	run := func(mappers []*nassim.Mapper) []*pipeline.JobResult {
		t.Helper()
		for i := range jobs {
			jobs[i].Map = nil
			if mappers != nil {
				jobs[i].Map = &pipeline.MapSpec{Mapper: mappers[i].Mapper, TopK: 10}
			}
		}
		jrs, err := eng.Run(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return jrs
	}
	derived := run(nil)
	pcs := make([][]nassim.ParamContext, len(derived))
	for i, jr := range derived {
		for _, p := range jr.VDM.Parameters() {
			pcs[i] = append(pcs[i], nassim.ExtractContext(jr.VDM, p))
		}
	}
	write := func(h hash.Hash, rs []nassim.Recommendation) {
		var buf [16]byte
		for _, r := range rs {
			binary.BigEndian.PutUint64(buf[:8], uint64(r.AttrIndex))
			binary.BigEndian.PutUint64(buf[8:], math.Float64bits(r.Score))
			h.Write(buf[:])
		}
	}
	kinds := []nassim.ModelKind{nassim.ModelIR, nassim.ModelSimCSE, nassim.ModelSBERT,
		nassim.ModelIRSBERT, nassim.ModelIRNetBERT}
	for _, kind := range kinds {
		mappers := make([]*nassim.Mapper, len(models))
		for i := range models {
			if mappers[i], err = nassim.NewMapper(u, kind); err != nil {
				t.Fatal(err)
			}
		}
		if kind == nassim.ModelIRNetBERT {
			run(mappers)
			for i, m := range mappers {
				// As evalbench -stages fine-tunes its mapper.
				anns := nassim.GroundTruthAnnotations(models[i], 50, 7)
				if _, err := m.FineTune(derived[i].VDM, u, anns, 4, 2, 7); err != nil {
					t.Fatal(err)
				}
			}
		}
		direct, staged := sha256.New(), sha256.New()
		params := 0
		for i, m := range mappers {
			recs, err := m.MapAll(ctx, pcs[i], 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, rs := range recs {
				write(direct, rs)
			}
			params += len(pcs[i])
		}
		for _, jr := range run(mappers) {
			for _, mp := range jr.Mapping {
				write(staged, mp.Recommendations)
			}
		}
		want := mapAllDigests[kind]
		if got := hex.EncodeToString(direct.Sum(nil)); got != want {
			t.Errorf("%s MapAll over %d parameters: digest %s, want %s", kind, params, got, want)
		}
		if got := hex.EncodeToString(staged.Sum(nil)); got != want {
			t.Errorf("%s map_to_udm stage over %d parameters: digest %s, want %s", kind, params, got, want)
		}
	}
}
