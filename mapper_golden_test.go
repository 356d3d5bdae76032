package nassim_test

// Golden test for the vectorized mapper hot path: on every built-in
// vendor's assimilated corpus, the precombined-matrix scorer must produce
// exactly the same top-k recommendation lists as the scalar Equation 2
// reference (per-pair cosines, full stable sort). Identical lists imply
// identical recall@top-k and MRR, so the §7.3 evaluation is unchanged by
// the optimization.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
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

// mapAllDigests are sha256 digests over every (attribute index, score
// bits) pair that MapAll at top-10 returns for every parameter of the
// four built-in vendors at scale 0.05, recorded before the mapper's
// query path stopped re-deriving token vectors and building TF-IDF query
// maps. Unlike the naive-vs-fast goldens above, nothing here routes the
// expected side through the current Rank or Encode, so any change to a
// summation order or a cached value shows as a digest change.
var mapAllDigests = map[nassim.ModelKind]string{
	nassim.ModelIR:        "4565550a5368503bed81ed8c29e6dcc0049a62090b40ea8bf26bbc6b417989b6",
	nassim.ModelSimCSE:    "2a7cc8e8696791d1431d4a7b4f48124347dcc0a190045311d555bc6327d289b8",
	nassim.ModelSBERT:     "8e6bf4864ff4fdb8aaefbbe76905a4b4d8c661de3bba904a9e686ede4263d81c",
	nassim.ModelIRSBERT:   "1a00b373ff0f903c6fd86cad922f8637589473435aaf6e59c5d02500bdf018ff",
	nassim.ModelIRNetBERT: "b4712a89e1a1da1d6fb350082454f83b4405efce6e44fbdc78a24f444c3914a3",
}

func TestMapAllDigestFourVendors(t *testing.T) {
	if testing.Short() {
		t.Skip("four-vendor corpus in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes score
		// bits without changing the code.
		t.Skipf("score digests are recorded on amd64, not %s", runtime.GOARCH)
	}
	u := nassim.BuildUDM()
	type vendorData struct {
		model *nassim.DeviceModel
		vdm   *nassim.VDM
		pcs   []nassim.ParamContext
	}
	var data []vendorData
	for _, vendor := range nassim.Vendors() {
		model, err := nassim.SyntheticModel(vendor, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		asr, err := nassim.AssimilateModel(context.Background(), model)
		if err != nil {
			t.Fatal(err)
		}
		params := asr.VDM.Parameters()
		pcs := make([]nassim.ParamContext, len(params))
		for i, p := range params {
			pcs[i] = nassim.ExtractContext(asr.VDM, p)
		}
		data = append(data, vendorData{model: model, vdm: asr.VDM, pcs: pcs})
	}
	kinds := []nassim.ModelKind{nassim.ModelIR, nassim.ModelSimCSE, nassim.ModelSBERT,
		nassim.ModelIRSBERT, nassim.ModelIRNetBERT}
	for _, kind := range kinds {
		h := sha256.New()
		var buf [16]byte
		params := 0
		for _, d := range data {
			m, err := nassim.NewMapper(u, kind)
			if err != nil {
				t.Fatal(err)
			}
			if kind == nassim.ModelIRNetBERT {
				// As evalbench -stages fine-tunes its mapper.
				anns := nassim.GroundTruthAnnotations(d.model, 50, 7)
				if _, err := m.FineTune(d.vdm, u, anns, 4, 2, 7); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := m.MapAll(context.Background(), d.pcs, 10)
			if err != nil {
				t.Fatal(err)
			}
			for _, rs := range recs {
				for _, r := range rs {
					binary.BigEndian.PutUint64(buf[:8], uint64(r.AttrIndex))
					binary.BigEndian.PutUint64(buf[8:], math.Float64bits(r.Score))
					h.Write(buf[:])
				}
			}
			params += len(d.pcs)
		}
		got := hex.EncodeToString(h.Sum(nil))
		if want := mapAllDigests[kind]; got != want {
			t.Errorf("%s over %d parameters: digest %s, want %s", kind, params, got, want)
		}
	}
}
