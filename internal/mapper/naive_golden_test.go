package mapper_test

// Golden test for the vectorized mapper hot path: on every built-in
// vendor's assimilated corpus, the precombined-matrix scorer must produce
// exactly the same top-k recommendation lists as the scalar Equation 2
// reference (per-pair cosines over every candidate). Identical lists imply
// identical recall@top-k and MRR, so the §7.3 evaluation is unchanged by
// the optimization. The test sits outside package mapper so that it can
// assimilate corpora through the root package; RecommendNaive reaches it
// through nassim.Mapper's embedded *mapper.Mapper.

import (
	"context"
	"testing"

	"nassim"
)

func TestVectorizedRecommendMatchesNaiveFourVendors(t *testing.T) {
	if testing.Short() {
		t.Skip("four-vendor corpus in -short mode")
	}
	u := nassim.BuildUDM()
	for _, vendor := range nassim.Vendors() {
		model, err := nassim.SyntheticModel(vendor, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		asr, err := nassim.AssimilateModel(context.Background(), model)
		if err != nil {
			t.Fatal(err)
		}
		anns := nassim.GroundTruthAnnotations(model, 40, 9)
		for _, kind := range []nassim.ModelKind{nassim.ModelSBERT, nassim.ModelIRSBERT} {
			m, err := nassim.NewMapper(u, kind)
			if err != nil {
				t.Fatal(err)
			}
			for _, ann := range anns {
				pc := nassim.ExtractContext(asr.VDM, ann.Param)
				fast := m.Recommend(pc, 10)
				naive := m.RecommendNaive(pc, 10)
				if len(fast) != len(naive) {
					t.Fatalf("%s/%s %s: %d recs vs %d", vendor, kind, ann.Param,
						len(fast), len(naive))
				}
				for i := range naive {
					if fast[i].AttrIndex != naive[i].AttrIndex {
						t.Fatalf("%s/%s %s pos %d: fast=%s(%.12f) naive=%s(%.12f)",
							vendor, kind, ann.Param, i,
							fast[i].Attr.ID, fast[i].Score,
							naive[i].Attr.ID, naive[i].Score)
					}
					if d := fast[i].Score - naive[i].Score; d > 1e-9 || d < -1e-9 {
						t.Fatalf("%s/%s %s pos %d: score drift %v", vendor, kind, ann.Param, i, d)
					}
				}
			}
		}
	}
}
