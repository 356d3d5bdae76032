package vdm

import (
	"fmt"
	"strings"
	"testing"

	"nassim/internal/artifact"
	"nassim/internal/cgm"
	"nassim/internal/clisyntax"
	"nassim/internal/corpus"
)

func fixture(t *testing.T) *VDM {
	t.Helper()
	v := &VDM{
		Vendor:   "Test",
		RootView: "system view",
		Corpora: []corpus.Corpus{
			{CLIs: []string{"bgp <as-number>"}, FuncDef: "Enters BGP.", ParentViews: []string{"system view"},
				ParaDef: []corpus.ParaDef{{Paras: "as-number", Info: "AS."}}},
			{CLIs: []string{"peer <ipv4-address> group <group-name>"}, FuncDef: "Peer.", ParentViews: []string{"BGP view"},
				ParaDef: []corpus.ParaDef{{Paras: "ipv4-address", Info: "a"}, {Paras: "group-name", Info: "g"}}},
		},
		Views: map[string]*ViewInfo{
			"system view": {Name: "system view", EnterCorpus: -1},
			"BGP view":    {Name: "BGP view", Parent: "system view", EnterCorpus: 0},
		},
		Pairs: []Pair{{Corpus: 0, View: "system view"}, {Corpus: 1, View: "BGP view"}},
		Index: cgm.NewIndex(),
	}
	for i := range v.Corpora {
		if err := v.Index.Add(CorpusID(i), v.Corpora[i].PrimaryCLI(), nil); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestCorpusIDRoundTrip(t *testing.T) {
	for _, i := range []int{0, 1, 42, 99999} {
		got, err := ParseCorpusID(CorpusID(i))
		if err != nil || got != i {
			t.Errorf("round trip %d -> %q -> %d (%v)", i, CorpusID(i), got, err)
		}
	}
	if _, err := ParseCorpusID("not-a-number"); err == nil {
		t.Error("bad id accepted")
	}
}

func TestViewsOfAndEnters(t *testing.T) {
	v := fixture(t)
	if got := v.ViewsOf(1); len(got) != 1 || got[0] != "BGP view" {
		t.Errorf("ViewsOf(1) = %v", got)
	}
	if got := v.Enters(0); len(got) != 1 || got[0] != "BGP view" {
		t.Errorf("Enters(0) = %v", got)
	}
	if got := v.Enters(1); len(got) != 0 {
		t.Errorf("Enters(1) = %v", got)
	}
	if got := v.PairCount(); got != 2 {
		t.Errorf("PairCount = %d", got)
	}
}

func TestAmbiguousViewsSorted(t *testing.T) {
	v := fixture(t)
	v.Views["Z view"] = &ViewInfo{Name: "Z view", Ambiguous: true}
	v.Views["A view"] = &ViewInfo{Name: "A view", Ambiguous: true}
	got := v.AmbiguousViews()
	if len(got) != 2 || got[0] != "A view" || got[1] != "Z view" {
		t.Errorf("AmbiguousViews = %v", got)
	}
}

func TestParameters(t *testing.T) {
	v := fixture(t)
	params := v.Parameters()
	want := []Parameter{
		{Corpus: 0, Name: "as-number"},
		{Corpus: 1, Name: "ipv4-address"},
		{Corpus: 1, Name: "group-name"},
	}
	if len(params) != len(want) {
		t.Fatalf("params = %v", params)
	}
	for i := range want {
		if params[i] != want[i] {
			t.Errorf("param %d = %v, want %v", i, params[i], want[i])
		}
	}
	if got := params[0].String(); got != "corpus-0#as-number" {
		t.Errorf("String = %q", got)
	}
}

func TestSummaryAndInvalidString(t *testing.T) {
	v := fixture(t)
	v.InvalidCLIs = append(v.InvalidCLIs, InvalidCLI{
		Corpus: 3, CLI: "x {",
		Err: &clisyntax.SyntaxError{Template: "x {", Pos: 2, Msg: "unpaired left brace"},
	})
	sum := v.Summary()
	for _, frag := range []string{"Test VDM", "2 corpora", "2 views", "1 invalid"} {
		if !strings.Contains(sum, frag) {
			t.Errorf("summary %q missing %q", sum, frag)
		}
	}
	if s := v.InvalidCLIs[0].String(); !strings.Contains(s, "corpus 3") || !strings.Contains(s, "unpaired") {
		t.Errorf("InvalidCLI.String = %q", s)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	v := fixture(t)
	v.Views["BGP view"].Ambiguous = true
	v.Views["BGP view"].RelevantSnippets = []string{"bgp 100\n peer 10.1.1.1 group test"}
	data, err := v.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vendor != v.Vendor || got.RootView != v.RootView {
		t.Errorf("identity: %q/%q", got.Vendor, got.RootView)
	}
	if len(got.Corpora) != len(v.Corpora) || got.Corpora[1].FuncDef != v.Corpora[1].FuncDef {
		t.Errorf("corpora: %+v", got.Corpora)
	}
	if got.PairCount() != v.PairCount() {
		t.Errorf("pairs = %d, want %d", got.PairCount(), v.PairCount())
	}
	info := got.Views["BGP view"]
	if info == nil || !info.Ambiguous || info.EnterCorpus != 0 || len(info.RelevantSnippets) != 1 {
		t.Errorf("view info: %+v", info)
	}
	// The rebuilt index must match instances again.
	if ids := got.Index.Match("peer 10.1.1.1 group test"); len(ids) != 1 || ids[0] != CorpusID(1) {
		t.Errorf("rebuilt index Match = %v", ids)
	}
}

func TestPersistReRecordsInvalidTemplates(t *testing.T) {
	v := fixture(t)
	// Corrupt a template after derivation, as if the file was hand-edited.
	v.Corpora[1].CLIs = []string{"peer { <ipv4-address>"}
	data, err := v.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.InvalidCLIs) != 1 || got.InvalidCLIs[0].Corpus != 1 {
		t.Errorf("InvalidCLIs = %v", got.InvalidCLIs)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("{bad"), nil); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Unmarshal([]byte(`{"Corpora": ["not-an-object"]}`), nil); err == nil {
		t.Error("bad corpus accepted")
	}
}

// TestLoadRejectsOutOfRangeModel: a model that names a view without a
// record, or a corpus it does not hold, is a load error in both formats.
// Loaded, the two documents would panic hierarchy.ValidateHierarchy (a nil
// dereference; index 7 out of range with length 1).
func TestLoadRejectsOutOfRangeModel(t *testing.T) {
	const doc = `{"Vendor": "x", "RootView": "system", "Corpora": [{"CLIs": ["sysname <name>"]}],
		"Views": {"system": {"Name": "system", "EnterCorpus": -1}, "bgp": %s}}`
	for name, view := range map[string]string{
		"null_view":          `null`,
		"enter_out_of_range": `{"Name": "bgp", "Parent": "system", "EnterCorpus": 7}`,
	} {
		if _, err := Unmarshal([]byte(fmt.Sprintf(doc, view)), nil); err == nil {
			t.Errorf("%s: Unmarshal accepted the document", name)
		}
	}

	for name, forge := range map[string]func(v *VDM){
		"pristine":    func(*VDM) {},
		"nil_view":    func(v *VDM) { v.Views["BGP view"] = nil },
		"pair":        func(v *VDM) { v.Pairs[1].Corpus = len(v.Corpora) },
		"invalid_cli": func(v *VDM) { v.InvalidCLIs = []InvalidCLI{{Corpus: -1, CLI: "x"}} },
		"template_id": func(v *VDM) {
			if err := v.Index.Add(CorpusID(len(v.Corpora)+5), v.Corpora[0].PrimaryCLI(), nil); err != nil {
				t.Fatal(err)
			}
		},
	} {
		v := fixture(t)
		forge(v)
		w := artifact.NewWriter("test/v1", 0)
		v.AppendBinary(w.Section("vdm"))
		r, err := artifact.Open(w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Section("vdm")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBinary(d); (err == nil) != (name == "pristine") {
			t.Errorf("%s: DecodeBinary error %v", name, err)
		}
	}
}
