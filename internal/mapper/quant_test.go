package mapper

import (
	"math"
	"math/rand"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/nlp"
	"nassim/internal/vdm"
)

// TestQuantRecommendMatchesFloat pins the quantized scorer's contract:
// the certified prune + exact rescore must return bit-identical
// rankings AND scores to the pure float path, for pure-DL and composite
// models across k values (including k larger than the survivor pool).
func TestQuantRecommendMatchesFloat(t *testing.T) {
	tree := testTree()
	v := miniVDM()
	params := []vdm.Parameter{
		{Corpus: 0, Name: "as-number"},
		{Corpus: 0, Name: "ipv4-address"},
		{Corpus: 1, Name: "vlan-id"},
		{Corpus: 0, Name: "unknown-param"}, // zero description row
	}
	// Force the quantized path even on the composite model's small
	// shortlists, so the certificate is exercised at every candidate-set
	// size (in production small sets take the float path directly).
	defer func(old int) { quantMinCandidates = old }(quantMinCandidates)
	quantMinCandidates = 1
	for _, ir := range []bool{false, true} {
		quant, err := New(tree, nlp.NewSBERT(64, devmodel.GeneralSynonyms()), ir)
		if err != nil {
			t.Fatal(err)
		}
		if quant.quant == nil {
			t.Fatal("default mapper did not build a quantized matrix")
		}
		ref, err := New(tree, nlp.NewSBERT(64, devmodel.GeneralSynonyms()), ir, WithFloatScoring())
		if err != nil {
			t.Fatal(err)
		}
		if ref.quant != nil {
			t.Fatal("WithFloatScoring left a quantized matrix in place")
		}
		for _, p := range params {
			pc := ExtractContext(v, p)
			for _, k := range []int{1, 3, 10, tree.Len()} {
				q := quant.Recommend(pc, k)
				f := ref.Recommend(pc, k)
				if len(q) != len(f) {
					t.Fatalf("ir=%v %s k=%d: len %d != %d", ir, p.Name, k, len(q), len(f))
				}
				for i := range f {
					if q[i].AttrIndex != f[i].AttrIndex || q[i].Score != f[i].Score {
						t.Fatalf("ir=%v %s k=%d pos %d: quant=%d(%v) float=%d(%v)",
							ir, p.Name, k, i, q[i].AttrIndex, q[i].Score, f[i].AttrIndex, f[i].Score)
					}
				}
			}
		}
	}
}

// TestQuantizeRowErrorBound is the property the prune certificate rests
// on: per element, |v − q·scale| ≤ scale/2 (+ float slop), and sumAbs
// really is Σ|q|.
func TestQuantizeRowErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(96)
		row := make([]float64, n)
		for i := range row {
			row[i] = (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.Intn(5)-2))
		}
		if trial%10 == 0 {
			row[rng.Intn(n)] = 0
		}
		q := make([]int8, n)
		scale, sumAbs := quantizeRow(row, q)
		if scale == 0 {
			t.Fatalf("trial %d: zero scale for nonzero row", trial)
		}
		var wantSum int32
		for i := range row {
			if d := math.Abs(row[i] - float64(q[i])*scale); d > scale/2+1e-12 {
				t.Fatalf("trial %d elem %d: |%v - %d*%v| = %v > scale/2", trial, i, row[i], q[i], scale, d)
			}
			if q[i] < 0 {
				wantSum -= int32(q[i])
			} else {
				wantSum += int32(q[i])
			}
		}
		if sumAbs != wantSum {
			t.Fatalf("trial %d: sumAbs %d != %d", trial, sumAbs, wantSum)
		}
	}
	// The all-zero row quantizes to the exact-zero marker.
	q := make([]int8, 8)
	if scale, sum := quantizeRow(make([]float64, 8), q); scale != 0 || sum != 0 {
		t.Fatalf("zero row: scale=%v sum=%d", scale, sum)
	}
}

// TestDotInt8MatchesScalar checks the blocked dot against the obvious
// loop, across lengths that exercise every remainder lane.
func TestDotInt8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 35; n++ {
		a := make([]int8, n)
		b := make([]int8, n)
		for i := 0; i < n; i++ {
			a[i] = int8(rng.Intn(255) - 127)
			b[i] = int8(rng.Intn(255) - 127)
		}
		var want int32
		for i := 0; i < n; i++ {
			want += int32(a[i]) * int32(b[i])
		}
		if got := dotInt8(a, b); got != want {
			t.Fatalf("n=%d: dotInt8 = %d, want %d", n, got, want)
		}
	}
}
