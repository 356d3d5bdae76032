package mapper

import (
	"context"
	"sync"
	"testing"

	"nassim/internal/corpus"
	"nassim/internal/devmodel"
	"nassim/internal/nlp"
	"nassim/internal/vdm"
)

// TestExtractContextFirstMatchWins is the regression for the ParaDef
// scan: with duplicated parameter names the FIRST matching entry must
// supply the description, not the last one silently overwriting it.
func TestExtractContextFirstMatchWins(t *testing.T) {
	v := &vdm.VDM{
		Vendor: "Test",
		Corpora: []corpus.Corpus{
			{
				CLIs: []string{"peer <ipv4-address> as-number <as-number>"},
				ParaDef: []corpus.ParaDef{
					{Paras: "as-number", Info: "Specifies the AS number of the peer."},
					{Paras: "as-number", Info: "Stale duplicate entry that must not win."},
				},
			},
		},
	}
	ctx := ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "as-number"})
	if got := ctx.Sequences[1]; got != "Specifies the AS number of the peer." {
		t.Fatalf("description = %q, want the first ParaDef entry", got)
	}
}

// TestRecommendMatchesNaive proves the vectorized Equation 2 path
// (precombined UDM rows, dot products, top-k heap) ranks identically to
// the scalar per-pair-cosine reference, for pure-DL and composite models
// and for non-uniform weights.
func TestRecommendMatchesNaive(t *testing.T) {
	tree := testTree()
	v := miniVDM()
	params := []vdm.Parameter{
		{Corpus: 0, Name: "as-number"},
		{Corpus: 0, Name: "ipv4-address"},
		{Corpus: 1, Name: "vlan-id"},
		{Corpus: 0, Name: "unknown-param"}, // empty description row -> zero vector
	}
	weights := make([]float64, KV*KU)
	for i := range weights {
		weights[i] = float64(1 + i%4)
	}
	cases := []struct {
		name string
		opts []Option
		ir   bool
	}{
		{name: "DL", ir: false},
		{name: "IR+DL", ir: true},
		{name: "DL-weighted", ir: false, opts: []Option{WithWeights(weights)}},
		{name: "IR+DL-short", ir: true, opts: []Option{WithShortlist(12)}},
	}
	for _, tc := range cases {
		enc := nlp.NewSBERT(64, devmodel.GeneralSynonyms())
		m, err := New(tree, enc, tc.ir, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range params {
			pc := ExtractContext(v, p)
			for _, k := range []int{1, 5, 10, tree.Len()} {
				fast := m.Recommend(pc, k)
				naive := m.RecommendNaive(pc, k)
				if len(fast) != len(naive) {
					t.Fatalf("%s %s k=%d: len %d != %d", tc.name, p.Name, k, len(fast), len(naive))
				}
				for i := range naive {
					if fast[i].AttrIndex != naive[i].AttrIndex {
						t.Fatalf("%s %s k=%d pos %d: fast=%d(%.9f) naive=%d(%.9f)",
							tc.name, p.Name, k, i,
							fast[i].AttrIndex, fast[i].Score,
							naive[i].AttrIndex, naive[i].Score)
					}
					if d := fast[i].Score - naive[i].Score; d > 1e-9 || d < -1e-9 {
						t.Fatalf("%s %s k=%d pos %d: score drift %v", tc.name, p.Name, k, i, d)
					}
				}
			}
		}
	}
}

func TestMapAllMatchesRecommend(t *testing.T) {
	tree := testTree()
	enc := nlp.NewSBERT(48, devmodel.GeneralSynonyms())
	m, err := New(tree, enc, true, WithMapWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	v := miniVDM()
	params := []vdm.Parameter{
		{Corpus: 0, Name: "as-number"},
		{Corpus: 0, Name: "ipv4-address"},
		{Corpus: 1, Name: "vlan-id"},
	}
	// Repeat the batch so it exceeds the worker count.
	var pcs []ParamContext
	for i := 0; i < 7; i++ {
		for _, p := range params {
			pcs = append(pcs, ExtractContext(v, p))
		}
	}
	got, err := m.MapAll(context.Background(), pcs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pcs) {
		t.Fatalf("results = %d, want %d", len(got), len(pcs))
	}
	for i, pc := range pcs {
		want := m.Recommend(pc, 5)
		if len(got[i]) != len(want) {
			t.Fatalf("param %d: %d recs, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j].AttrIndex != want[j].AttrIndex || got[i][j].Score != want[j].Score {
				t.Fatalf("param %d pos %d: %+v != %+v", i, j, got[i][j], want[j])
			}
		}
	}
	// Empty batch is a no-op, not a hang.
	empty, err := m.MapAll(context.Background(), nil, 5)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
}

func TestMapAllCancellation(t *testing.T) {
	tree := testTree()
	enc := nlp.NewSBERT(32, devmodel.GeneralSynonyms())
	m, err := New(tree, enc, false, WithMapWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	v := miniVDM()
	pcs := make([]ParamContext, 64)
	for i := range pcs {
		pcs[i] = ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "as-number"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.MapAll(ctx, pcs, 3); err == nil {
		t.Fatal("cancelled MapAll returned nil error")
	}
}

// TestMapperConcurrentHammer drives one shared composite mapper from 8
// goroutines mixing Recommend, MapAll and Fingerprint (the engine keys
// jobs that share a mapper concurrently). Run under -race (make race, CI)
// it proves the encoder cache, the precombined matrices, the IR index and
// the encoder tables are safe for concurrent queries.
func TestMapperConcurrentHammer(t *testing.T) {
	tree := testTree()
	enc := nlp.NewNetBERT(48, devmodel.GeneralSynonyms())
	m, err := New(tree, enc, true, WithMapWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	v := miniVDM()
	params := []vdm.Parameter{
		{Corpus: 0, Name: "as-number"},
		{Corpus: 0, Name: "ipv4-address"},
		{Corpus: 1, Name: "vlan-id"},
	}
	want := m.Recommend(ExtractContext(v, params[0]), 5)
	fp := m.Fingerprint()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				p := params[(g+i)%len(params)]
				if g%2 == 0 {
					if recs := m.Recommend(ExtractContext(v, p), 5); len(recs) == 0 {
						t.Error("no recommendations")
						return
					}
					if got := m.Fingerprint(); got != fp {
						t.Errorf("fingerprint drifted under queries: %s != %s", got, fp)
						return
					}
					continue
				}
				pcs := []ParamContext{ExtractContext(v, params[0]), ExtractContext(v, p)}
				res, err := m.MapAll(context.Background(), pcs, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if res[0][j].AttrIndex != want[j].AttrIndex || res[0][j].Score != want[j].Score {
						t.Errorf("concurrent result drifted: %+v != %+v", res[0][j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
