package mapper

import (
	"math"
	"strings"
	"testing"

	"nassim/internal/corpus"
	"nassim/internal/devmodel"
	"nassim/internal/nlp"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

// miniVDM builds a small hand-written VDM whose parameters map 1:1 onto
// concepts of the shared space.
func miniVDM() *vdm.VDM {
	return &vdm.VDM{
		Vendor: "Test",
		Corpora: []corpus.Corpus{
			{
				CLIs:        []string{"peer <ipv4-address> as-number <as-number>"},
				FuncDef:     "Specifies the autonomous system number of the BGP peer.",
				ParentViews: []string{"BGP view"},
				ParaDef: []corpus.ParaDef{
					{Paras: "ipv4-address", Info: "Specifies the IPv4 address of the BGP peer."},
					{Paras: "as-number", Info: "Specifies the autonomous system number of the BGP peer."},
				},
			},
			{
				CLIs:        []string{"vlan <vlan-id>"},
				FuncDef:     "Creates a VLAN.",
				ParentViews: []string{"system view"},
				ParaDef: []corpus.ParaDef{
					{Paras: "vlan-id", Info: "Specifies the VLAN identifier of the VLAN."},
				},
			},
		},
	}
}

func testTree() *udm.Tree { return udm.Build(devmodel.Concepts()) }

func TestExtractContext(t *testing.T) {
	v := miniVDM()
	ctx := ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "as-number"})
	if len(ctx.Sequences) != KV {
		t.Fatalf("sequences = %d, want %d", len(ctx.Sequences), KV)
	}
	if ctx.Sequences[0] != "as number" {
		t.Errorf("name seq = %q", ctx.Sequences[0])
	}
	if !strings.Contains(ctx.Sequences[1], "autonomous system number") {
		t.Errorf("paradef seq = %q", ctx.Sequences[1])
	}
	if !strings.Contains(ctx.Sequences[2], "peer <ipv4-address>") {
		t.Errorf("cli seq = %q", ctx.Sequences[2])
	}
	if ctx.Sequences[4] != "BGP view" {
		t.Errorf("views seq = %q", ctx.Sequences[4])
	}
	// A parameter without a ParaDef entry yields an empty description row.
	ctx2 := ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "unknown-param"})
	if ctx2.Sequences[1] != "" {
		t.Errorf("missing-param desc = %q", ctx2.Sequences[1])
	}
}

func TestIRMapperFindsExactMatch(t *testing.T) {
	tree := testTree()
	m, err := New(tree, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "IR" {
		t.Errorf("Name = %q", m.Name())
	}
	v := miniVDM()
	recs := m.Recommend(ExtractContext(v, vdm.Parameter{Corpus: 1, Name: "vlan-id"}), 5)
	if len(recs) != 5 {
		t.Fatalf("recs = %d", len(recs))
	}
	if recs[0].Attr.ID != "vlan.vlan.vlan-id" {
		t.Errorf("top rec = %s (score %.3f)", recs[0].Attr.ID, recs[0].Score)
	}
}

func TestDLMapperFindsExactMatch(t *testing.T) {
	tree := testTree()
	enc := nlp.NewSBERT(128, devmodel.GeneralSynonyms())
	m, err := New(tree, enc, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "SBERT" {
		t.Errorf("Name = %q", m.Name())
	}
	v := miniVDM()
	recs := m.Recommend(ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "as-number"}), 10)
	found := false
	for _, r := range recs {
		if r.Attr.ID == "bgp.peer.as-number" {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("bgp.peer.as-number not in top 10: %v", recs)
	}
}

func TestCompositeShortlists(t *testing.T) {
	tree := testTree()
	enc := nlp.NewSBERT(64, devmodel.GeneralSynonyms())
	m, err := New(tree, enc, true, WithShortlist(5))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "IR+SBERT" {
		t.Errorf("Name = %q", m.Name())
	}
	v := miniVDM()
	recs := m.Recommend(ExtractContext(v, vdm.Parameter{Corpus: 1, Name: "vlan-id"}), 10)
	// Shortlist of 5 caps the output even when k is larger.
	if len(recs) != 5 {
		t.Errorf("recs = %d, want 5 (shortlist)", len(recs))
	}
}

func TestNewMapperValidation(t *testing.T) {
	tree := testTree()
	if _, err := New(tree, nil, false); err == nil {
		t.Error("mapper without model accepted")
	}
	enc := nlp.NewSBERT(16, nil)
	if _, err := New(tree, enc, false, WithWeights([]float64{1, 2})); err == nil {
		t.Error("wrong-length weights accepted")
	}
	if _, err := New(tree, enc, false, WithWeights(make([]float64, KV*KU))); err == nil {
		t.Error("zero-mass weights accepted")
	}
	w := make([]float64, KV*KU)
	for i := range w {
		w[i] = 2
	}
	if _, err := New(tree, enc, false, WithWeights(w)); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
}

func TestEvaluateRecallAndMRR(t *testing.T) {
	tree := testTree()
	m, err := New(tree, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	v := miniVDM()
	anns := []Annotation{
		{Param: vdm.Parameter{Corpus: 0, Name: "as-number"}, AttrID: "bgp.peer.as-number"},
		{Param: vdm.Parameter{Corpus: 0, Name: "ipv4-address"}, AttrID: "bgp.peer.ipv4-address"},
		{Param: vdm.Parameter{Corpus: 1, Name: "vlan-id"}, AttrID: "vlan.vlan.vlan-id"},
		{Param: vdm.Parameter{Corpus: 1, Name: "vlan-id"}, AttrID: "not.a.concept"}, // skipped
	}
	res := Evaluate(m, v, tree, anns, []int{1, 5, 10})
	if res.N != 3 {
		t.Fatalf("N = %d, want 3 (unknown attr skipped)", res.N)
	}
	if res.Recall[10] < res.Recall[5] || res.Recall[5] < res.Recall[1] {
		t.Errorf("recall not monotone: %v", res.Recall)
	}
	if res.MRR < 0 || res.MRR > 1 {
		t.Errorf("MRR = %f", res.MRR)
	}
	if s := res.String(); !strings.Contains(s, "mrr=") || !strings.Contains(s, "r@10=") {
		t.Errorf("String = %q", s)
	}
}

func TestBuildTrainExamples(t *testing.T) {
	tree := testTree()
	v := miniVDM()
	anns := []Annotation{
		{Param: vdm.Parameter{Corpus: 0, Name: "as-number"}, AttrID: "bgp.peer.as-number"},
		{Param: vdm.Parameter{Corpus: 0, Name: "x"}, AttrID: "missing.id"},
	}
	ex := BuildTrainExamples(v, tree, anns)
	if len(ex) != 1 {
		t.Fatalf("examples = %d, want 1", len(ex))
	}
	if len(ex[0].Query) == 0 || len(ex[0].Target) == 0 {
		t.Error("empty example sides")
	}
}

func TestAccelerationFactor(t *testing.T) {
	if got := AccelerationFactor(89); math.Abs(got-9.0909) > 0.01 {
		t.Errorf("AccelerationFactor(89) = %f, want ~9.09 (the paper's 9.1x)", got)
	}
	if got := AccelerationFactor(100); got < 1e8 {
		t.Errorf("AccelerationFactor(100) = %f", got)
	}
	if got := AccelerationFactor(0); got != 1 {
		t.Errorf("AccelerationFactor(0) = %f", got)
	}
}

func TestExplainOutput(t *testing.T) {
	tree := testTree()
	m, _ := New(tree, nil, true)
	v := miniVDM()
	ctx := ExtractContext(v, vdm.Parameter{Corpus: 1, Name: "vlan-id"})
	s := Explain(ctx, m.Recommend(ctx, 3))
	for _, frag := range []string{"corpus-1#vlan-id", "1.", "vlan"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, s)
		}
	}
}

func TestRecommendDefaultK(t *testing.T) {
	tree := testTree()
	m, _ := New(tree, nil, true)
	v := miniVDM()
	recs := m.Recommend(ExtractContext(v, vdm.Parameter{Corpus: 0, Name: "as-number"}), 0)
	if len(recs) != 10 {
		t.Errorf("default k recs = %d, want 10", len(recs))
	}
}

// TestFingerprint pins what the map_to_udm cache key sees: mappers built
// from equal inputs share a fingerprint, a change to any one input that
// can move a score changes it, and settings that leave every score
// bit-identical leave it alone.
func TestFingerprint(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	build := func(tree *udm.Tree, enc nlp.Encoder, ir bool, opts ...Option) *Mapper {
		t.Helper()
		m, err := New(tree, enc, ir, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	netbert := func() nlp.Encoder { return nlp.NewNetBERT(32, syn) }
	edited := func(edit func(a *udm.Attribute)) *udm.Tree {
		tree := testTree()
		edit(&tree.Attrs[3])
		return tree
	}
	weights := make([]float64, KV*KU)
	for i := range weights {
		weights[i] = float64(1 + i%3)
	}
	// "nbr" replaces "peer" between shared anchors in three of seven
	// pairs, enough support for one learned alignment.
	var examples []nlp.TrainExample
	for _, p := range [][2]string{
		{"set the nbr address", "set the peer address"},
		{"show the nbr state", "show the peer state"},
		{"reset the nbr session", "reset the peer session"},
		{"vlan identifier value", "vlan id value"},
		{"interface mtu size", "interface mtu size"},
		{"route metric cost", "route metric cost"},
		{"system hostname text", "system hostname text"},
	} {
		examples = append(examples, nlp.TrainExample{Query: strings.Fields(p[0]), Target: strings.Fields(p[1])})
	}
	tuned := func(ex []nlp.TrainExample) *Mapper {
		t.Helper()
		nb := nlp.NewNetBERT(32, syn)
		m := build(testTree(), nb, true)
		if st := nb.FineTune(ex, 10, 1, 7); len(ex) > 0 && st.Alignments == 0 {
			t.Fatal("fine-tuning learned no alignment")
		}
		m.RefreshUDM()
		return m
	}

	want := build(testTree(), netbert(), true).Fingerprint()
	cases := []struct {
		name string
		m    *Mapper
		same bool
	}{
		{"rebuilt", build(testTree(), netbert(), true), true},
		{"1 map worker", build(testTree(), netbert(), true, WithMapWorkers(1)), true},
		{"4 map workers", build(testTree(), netbert(), true, WithMapWorkers(4)), true},
		{"fine-tuned on nothing", tuned(nil), true},
		{"encoder kind", build(testTree(), nlp.NewSBERT(32, syn), true), false},
		{"dimension", build(testTree(), nlp.NewNetBERT(48, syn), true), false},
		{"weights", build(testTree(), netbert(), true, WithWeights(weights)), false},
		{"shortlist", build(testTree(), netbert(), true, WithShortlist(20)), false},
		{"no IR", build(testTree(), netbert(), false), false},
		{"attribute desc", build(edited(func(a *udm.Attribute) { a.Desc += " edited" }), netbert(), true), false},
		{"attribute path", build(edited(func(a *udm.Attribute) {
			a.Path = append(append([]string(nil), a.Path...), "edited")
		}), netbert(), true), false},
		{"fine-tuned", tuned(examples), false},
	}
	for _, tc := range cases {
		if got := tc.m.Fingerprint(); (got == want) != tc.same {
			t.Errorf("%s: fingerprint %s, base %s, want same=%v", tc.name, got, want, tc.same)
		}
	}
}
