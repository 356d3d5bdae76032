package hierarchy

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nassim/internal/corpus"
	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
	"nassim/internal/parser"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

// pipeline renders a scaled vendor manual, parses it, and derives the VDM —
// the full VDM-construction phase against ground truth.
func pipeline(t *testing.T, v devmodel.Vendor, scale float64) (*devmodel.Model, *vdm.VDM, *Report) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(scale))
	man := manualgen.Render(m)
	p, err := parser.New(string(v))
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]parser.Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = parser.Page{URL: pg.URL, HTML: pg.HTML}
	}
	res := p.Parse(context.Background(), pages)
	edges := make([]Edge, len(res.Hierarchy))
	for i, e := range res.Hierarchy {
		edges[i] = Edge{Parent: e.Parent, Child: e.Child}
	}
	model, rep := Derive(context.Background(), string(v), res.Corpora, edges, nil)
	return m, model, rep
}

func TestDeriveRecoversGroundTruth(t *testing.T) {
	for _, vendor := range devmodel.AllVendors {
		vendor := vendor
		t.Run(string(vendor), func(t *testing.T) {
			m, v, rep := pipeline(t, vendor, 0.02)

			if rep.RootView != m.RootView {
				t.Fatalf("root view = %q, want %q", rep.RootView, m.RootView)
			}
			if got, want := len(v.InvalidCLIs), len(m.SyntaxErrorIDs); got != want {
				t.Errorf("invalid CLIs = %d, want %d", got, want)
			}
			if got, want := v.PairCount(), m.CLIViewPairs(); got != want {
				t.Errorf("pairs = %d, want %d", got, want)
			}
			if got, want := len(v.Views), len(m.Views); got != want {
				t.Errorf("views = %d, want %d", got, want)
			}
			// Every derived enter/parent relation must match ground truth.
			for name, info := range v.Views {
				gt := m.ViewByName(name)
				if gt == nil {
					t.Errorf("derived unknown view %q", name)
					continue
				}
				if name == m.RootView {
					continue
				}
				if info.Parent != gt.Parent && !info.Ambiguous {
					t.Errorf("view %q: parent = %q, want %q", name, info.Parent, gt.Parent)
				}
				if info.EnterCorpus < 0 {
					t.Errorf("view %q: no enter command derived", name)
					continue
				}
				enterID := m.Commands[info.EnterCorpus].ID
				if enterID != gt.Enter && !info.Ambiguous {
					t.Errorf("view %q: enter = %s, want %s", name, enterID, gt.Enter)
				}
			}
			// Ambiguous views must match the injected ground truth exactly.
			wantAmb := append([]string{}, m.AmbiguousViewNames...)
			sort.Strings(wantAmb)
			gotAmb := v.AmbiguousViews()
			if len(gotAmb) != len(wantAmb) {
				t.Fatalf("ambiguous views = %v, want %v", gotAmb, wantAmb)
			}
			for i := range wantAmb {
				if gotAmb[i] != wantAmb[i] {
					t.Fatalf("ambiguous views = %v, want %v", gotAmb, wantAmb)
				}
			}
			if len(rep.UnresolvedViews) != 0 {
				t.Errorf("unresolved views: %v", rep.UnresolvedViews)
			}
			// The derived hierarchy must be structurally consistent.
			if issues := ValidateHierarchy(v); len(issues) != 0 {
				t.Errorf("hierarchy validation issues: %v", issues)
			}
		})
	}
}

func TestAmbiguousViewsRecordSnippets(t *testing.T) {
	_, v, _ := pipeline(t, devmodel.Huawei, 0.02)
	amb := v.AmbiguousViews()
	if len(amb) == 0 {
		t.Fatal("no ambiguous views derived")
	}
	for _, name := range amb {
		info := v.Views[name]
		if len(info.RelevantSnippets) == 0 {
			t.Errorf("ambiguous view %q has no recorded snippets for expert review", name)
		}
	}
}

// TestCheckSyntaxSplitsTemplates checks that the syntax check flags the
// injected errors and hands every other template to valid, and that
// Derive flags the same list and indexes exactly the templates that pass.
func TestCheckSyntaxSplitsTemplates(t *testing.T) {
	m, v, _ := pipeline(t, devmodel.Huawei, 0.02)
	var passed []int
	invalid := CheckSyntax(context.Background(), v.Corpora, func(i int, _ string) { passed = append(passed, i) })
	if len(invalid) != len(m.SyntaxErrorIDs) || len(invalid)+len(passed) != len(v.Corpora) {
		t.Fatalf("%d invalid and %d passed of %d corpora, want %d invalid",
			len(invalid), len(passed), len(v.Corpora), len(m.SyntaxErrorIDs))
	}
	if !reflect.DeepEqual(invalid, v.InvalidCLIs) {
		t.Errorf("Derive flagged %v, the check %v", v.InvalidCLIs, invalid)
	}
	if v.Index.Len() != len(passed) {
		t.Errorf("Derive indexed %d templates, %d passed", v.Index.Len(), len(passed))
	}
	for _, i := range passed {
		if v.Index.Graph(vdm.CorpusID(i)) == nil {
			t.Errorf("corpus %d passed but has no CGM", i)
		}
	}
}

func TestCGMTimeDominates(t *testing.T) {
	// The paper reports ~84% of hierarchy-derivation time in CGM
	// construction; at minimum the split must be measured: one Derive
	// observes each of the two split histograms once.
	cgmHist := telemetry.GetHistogram("nassim_hierarchy_cgm_build_seconds", nil, "vendor", string(devmodel.Huawei))
	deriveHist := telemetry.GetHistogram("nassim_hierarchy_derive_seconds", nil, "vendor", string(devmodel.Huawei))
	cgmBefore, deriveBefore := cgmHist.Count(), deriveHist.Count()
	pipeline(t, devmodel.Huawei, 0.05)
	if got := cgmHist.Count() - cgmBefore; got != 1 {
		t.Errorf("CGM build histogram observed %d times, want 1", got)
	}
	if got := deriveHist.Count() - deriveBefore; got != 1 {
		t.Errorf("derivation histogram observed %d times, want 1", got)
	}
}

func TestDeriveExplicitIgnoresExamples(t *testing.T) {
	// Nokia path: no examples, everything from explicit edges + Enables.
	m, v, rep := pipeline(t, devmodel.Nokia, 0.02)
	if rep.WeakVotes != 0 {
		t.Errorf("explicit derivation cast %d weak votes", rep.WeakVotes)
	}
	if rep.RootView != m.RootView {
		t.Errorf("root = %q, want %q", rep.RootView, m.RootView)
	}
	if v.RootView != rep.RootView {
		t.Errorf("VDM root %q != report root %q", v.RootView, rep.RootView)
	}
}

func TestValidateHierarchyCatchesInconsistencies(t *testing.T) {
	corpora := []corpus.Corpus{
		{CLIs: []string{"bgp <as-number>"}, FuncDef: "f", ParentViews: []string{"system view"}},
		{CLIs: []string{"peer <ipv4-address>"}, FuncDef: "f", ParentViews: []string{"BGP view"}},
	}
	v, _ := Derive(context.Background(), "Test", corpora, nil, nil)
	// No examples: BGP view cannot be derived.
	issues := ValidateHierarchy(v)
	found := false
	for _, is := range issues {
		if is.View == "BGP view" && is.Msg == "no enter command derived" {
			found = true
		}
	}
	if !found {
		t.Errorf("issues = %v, want missing-enter for BGP view", issues)
	}
}

func TestDeriveFromManualExamples(t *testing.T) {
	// A hand-written mini corpus exercising the Figure 3 walkthrough: from
	// the example snippet the deriver must conclude that `bgp <as-number>`
	// enters the BGP view.
	corpora := []corpus.Corpus{
		{
			CLIs: []string{"bgp <as-number>"}, FuncDef: "Enters the BGP view.",
			ParentViews: []string{"system view"},
			ParaDef:     []corpus.ParaDef{{Paras: "as-number", Info: "AS number."}},
			Examples:    [][]string{{"bgp 100"}},
		},
		{
			CLIs: []string{"peer <ipv4-address> group <group-name>"}, FuncDef: "Adds a peer to a group.",
			ParentViews: []string{"BGP view"},
			ParaDef: []corpus.ParaDef{
				{Paras: "ipv4-address", Info: "Peer address."},
				{Paras: "group-name", Info: "Group name."},
			},
			Examples: [][]string{{"bgp 100", " peer 10.1.1.1 group test"}},
		},
	}
	v, rep := Derive(context.Background(), "Huawei", corpora, nil, nil)
	if rep.RootView != "system view" {
		t.Fatalf("root = %q", rep.RootView)
	}
	info := v.Views["BGP view"]
	if info == nil || info.EnterCorpus != 0 {
		t.Fatalf("BGP view info = %+v, want enter corpus 0", info)
	}
	if info.Parent != "system view" {
		t.Errorf("BGP view parent = %q", info.Parent)
	}
	if info.Ambiguous {
		t.Error("BGP view marked ambiguous")
	}
	if got := v.Enters(0); len(got) != 1 || got[0] != "BGP view" {
		t.Errorf("Enters(0) = %v", got)
	}
	if got := v.ViewsOf(1); len(got) != 1 || got[0] != "BGP view" {
		t.Errorf("ViewsOf(1) = %v", got)
	}
}

// Figure 7: one enter command shared by two views makes both ambiguous.
func TestSharedEnterCommandYieldsAmbiguity(t *testing.T) {
	corpora := []corpus.Corpus{
		{
			CLIs: []string{"msdp vpn-instance <name>"}, FuncDef: "Enters MSDP.",
			ParentViews: []string{"system view"},
			ParaDef:     []corpus.ParaDef{{Paras: "name", Info: "Instance name."}},
			Examples:    [][]string{{"msdp vpn-instance test"}},
		},
		{
			CLIs: []string{"peer-a <ipv4-address>"}, FuncDef: "MSDP peer.",
			ParentViews: []string{"MSDP view"},
			ParaDef:     []corpus.ParaDef{{Paras: "ipv4-address", Info: "addr"}},
			Examples:    [][]string{{"msdp vpn-instance test", " peer-a 10.1.1.1"}},
		},
		{
			CLIs: []string{"peer-b <ipv4-address>"}, FuncDef: "VPN MSDP peer.",
			ParentViews: []string{"VPN instance MSDP view"},
			ParaDef:     []corpus.ParaDef{{Paras: "ipv4-address", Info: "addr"}},
			Examples:    [][]string{{"msdp vpn-instance test", " peer-b 10.1.1.1"}},
		},
	}
	v, _ := Derive(context.Background(), "Huawei", corpora, nil, nil)
	amb := v.AmbiguousViews()
	if len(amb) != 2 {
		t.Fatalf("ambiguous views = %v, want both MSDP views", amb)
	}
	for _, name := range amb {
		if len(v.Views[name].RelevantSnippets) == 0 {
			t.Errorf("view %q lacks relevant snippets", name)
		}
	}
}

func TestParametersEnumeration(t *testing.T) {
	_, v, _ := pipeline(t, devmodel.H3C, 0.02)
	params := v.Parameters()
	if len(params) == 0 {
		t.Fatal("no parameters enumerated")
	}
	for _, p := range params[:5] {
		if p.Name == "" || p.Corpus < 0 || p.Corpus >= len(v.Corpora) {
			t.Errorf("bad parameter %+v", p)
		}
	}
}

func TestSummaryString(t *testing.T) {
	_, v, _ := pipeline(t, devmodel.Cisco, 0.02)
	s := v.Summary()
	if s == "" {
		t.Error("empty summary")
	}
}

func TestReportAndIssueStrings(t *testing.T) {
	_, _, rep := pipeline(t, devmodel.Cisco, 0.02)
	s := rep.String()
	for _, frag := range []string{"root=", "invalid=", "ambiguous="} {
		if !strings.Contains(s, frag) {
			t.Errorf("report string %q missing %q", s, frag)
		}
	}
	is := Issue{View: "X view", Msg: "broken"}
	if got := is.String(); !strings.Contains(got, "X view") || !strings.Contains(got, "broken") {
		t.Errorf("Issue.String = %q", got)
	}
}
