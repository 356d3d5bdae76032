package parser

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"nassim/internal/clisyntax"
	"nassim/internal/corpus"
	"nassim/internal/devmodel"
	"nassim/internal/htmlparse"
	"nassim/internal/manualgen"
)

// renderAndParse generates a scaled model, renders its manual and parses it
// back with the built-in vendor parser.
func renderAndParse(t *testing.T, v devmodel.Vendor) (*devmodel.Model, *Result, *corpus.Report) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(0.02))
	man := manualgen.Render(m)
	p, err := New(string(v))
	if err != nil {
		t.Fatal(err)
	}
	pages := make([]Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = Page{URL: pg.URL, HTML: pg.HTML}
	}
	res, rep := p.ParseAndValidate(context.Background(), pages)
	return m, res, rep
}

// corrupted returns the set of command IDs whose templates were corrupted.
func corrupted(m *devmodel.Model) map[string]bool {
	out := map[string]bool{}
	for _, id := range m.SyntaxErrorIDs {
		out[id] = true
	}
	return out
}

func TestRoundTripAllVendors(t *testing.T) {
	for _, v := range devmodel.AllVendors {
		v := v
		t.Run(string(v), func(t *testing.T) {
			m, res, rep := renderAndParse(t, v)
			if len(res.Corpora) != len(m.Commands) {
				t.Fatalf("corpora = %d, want %d", len(res.Corpora), len(m.Commands))
			}
			if !rep.Passed() {
				t.Fatalf("completeness report failed:\n%s", rep.Summary())
			}
			bad := corrupted(m)
			for i, c := range res.Corpora {
				cmd := m.Commands[i]
				if len(c.CLIs) != 1 {
					t.Fatalf("%s: CLIs = %v", cmd.ID, c.CLIs)
				}
				if bad[cmd.ID] {
					if c.CLIs[0] == cmd.Template {
						t.Errorf("%s: corrupted command parsed back to the clean template", cmd.ID)
					}
					if clisyntax.Validate(c.CLIs[0]) == nil {
						t.Errorf("%s: corrupted template passed formal syntax validation: %q", cmd.ID, c.CLIs[0])
					}
					continue
				}
				if c.CLIs[0] != cmd.Template {
					t.Errorf("%s: CLI = %q, want %q", cmd.ID, c.CLIs[0], cmd.Template)
				}
				if !reflect.DeepEqual(c.ParentViews, cmd.Views) {
					t.Errorf("%s: ParentViews = %v, want %v", cmd.ID, c.ParentViews, cmd.Views)
				}
				if c.FuncDef != cmd.FuncDesc {
					t.Errorf("%s: FuncDef = %q, want %q", cmd.ID, c.FuncDef, cmd.FuncDesc)
				}
				if len(c.ParaDef) != len(cmd.Params) {
					t.Errorf("%s: ParaDef = %d entries, want %d", cmd.ID, len(c.ParaDef), len(cmd.Params))
				} else {
					for j, pd := range c.ParaDef {
						if pd.Paras != cmd.Params[j].Name || pd.Info != cmd.Params[j].Desc {
							t.Errorf("%s: ParaDef[%d] = %+v, want (%s, %s)",
								cmd.ID, j, pd, cmd.Params[j].Name, cmd.Params[j].Desc)
						}
					}
				}
				if !reflect.DeepEqual(c.Examples, cmd.Examples) && !(len(c.Examples) == 0 && len(cmd.Examples) == 0) {
					t.Errorf("%s: Examples = %v, want %v", cmd.ID, c.Examples, cmd.Examples)
				}
			}
		})
	}
}

func TestNokiaExplicitHierarchy(t *testing.T) {
	m, res, _ := renderAndParse(t, devmodel.Nokia)
	if len(res.Hierarchy) == 0 {
		t.Fatal("Nokia parser extracted no hierarchy edges")
	}
	// Every extracted edge must be a real parent/child pair in the model,
	// and every view's parent edge must be recoverable.
	valid := map[ViewEdge]bool{}
	for _, v := range m.Views {
		if v.Parent != "" {
			valid[ViewEdge{Parent: v.Parent, Child: v.Name}] = true
		}
	}
	for _, e := range res.Hierarchy {
		if !valid[e] {
			t.Errorf("extracted edge %+v not in ground truth", e)
		}
	}
	got := map[ViewEdge]bool{}
	for _, e := range res.Hierarchy {
		got[e] = true
	}
	// Views referenced by at least one command must have their edge found.
	referenced := map[string]bool{}
	for _, c := range m.Commands {
		for _, v := range c.Views {
			referenced[v] = true
		}
	}
	for _, v := range m.Views {
		if v.Parent == "" || !referenced[v.Name] {
			continue
		}
		if !got[ViewEdge{Parent: v.Parent, Child: v.Name}] {
			t.Errorf("edge for view %q missing", v.Name)
		}
	}
}

func TestUnknownVendor(t *testing.T) {
	if _, err := New("arista"); err == nil {
		t.Error("unknown vendor accepted")
	}
}

func TestVendorsList(t *testing.T) {
	vs := Vendors()
	if len(vs) != 4 {
		t.Fatalf("Vendors() = %v", vs)
	}
	for _, v := range vs {
		p, err := New(v)
		if err != nil {
			t.Errorf("New(%s): %v", v, err)
			continue
		}
		if p.Vendor() != v {
			t.Errorf("Vendor() = %q, want %q", p.Vendor(), v)
		}
	}
}

// TestTDDWorkflow reproduces the §4 human-in-the-loop story: a preliminary
// Cisco parser configured before the TDD loop discovered the cBold and
// cCN_CmdName keyword variants mis-parses keywords as bare text; the
// completeness self-check flags the affected corpora; the fixed parser
// passes.
func TestTDDWorkflow(t *testing.T) {
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.Cisco).Scaled(0.02))
	man := manualgen.Render(m)
	pages := make([]Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = Page{URL: pg.URL, HTML: pg.HTML}
	}
	preliminary := &Parser{vendor: "Cisco", parsePage: func(doc *htmlparse.Node) (corpus.Corpus, []ViewEdge) {
		c, edges := parseCiscoPage(doc)
		// Re-extract CLIs knowing only the cKeyword variant, as a first
		// parser version would.
		c.CLIs = nil
		for _, n := range doc.ByAnyClass("pCE_CmdEnv", "pCENB_CmdEnv_NoBold") {
			if cli := styledCLIFontBased(n, []string{"cKeyword"}); cli != "" {
				c.CLIs = append(c.CLIs, cli)
			}
		}
		return c, edges
	}}
	_, rep := preliminary.ParseAndValidate(context.Background(), pages)
	if rep.Passed() {
		t.Fatal("preliminary parser unexpectedly passed all tests")
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "violations") {
		t.Errorf("summary = %s", sum)
	}
	// The fixed parser (all keyword class variants) passes.
	fixed, err := New("Cisco")
	if err != nil {
		t.Fatal(err)
	}
	_, rep2 := fixed.ParseAndValidate(context.Background(), pages)
	if !rep2.Passed() {
		t.Fatalf("fixed parser still fails:\n%s", rep2.Summary())
	}
}

func TestAdaptionCost(t *testing.T) {
	for _, v := range Vendors() {
		cost := MeasureAdaptionCost(v)
		// The paper reports ~41-57 LOC for parsing() and 6-10 for
		// get_cli_parser(); ours must be in the same regime.
		if cost.ParsingLOC < 20 || cost.ParsingLOC > 80 {
			t.Errorf("%s parsing LOC = %d, want 20..80", v, cost.ParsingLOC)
		}
		if cost.GetCLIParserLOC < 1 || cost.GetCLIParserLOC > 15 {
			t.Errorf("%s get_cli_parser LOC = %d, want 1..15", v, cost.GetCLIParserLOC)
		}
	}
	if got := MeasureAdaptionCost("Unknown"); got.ParsingLOC != 0 || got.GetCLIParserLOC != 0 {
		t.Errorf("unknown vendor cost = %+v", got)
	}
}

func TestGetCLIParser(t *testing.T) {
	for _, v := range Vendors() {
		validate := GetCLIParser(v)
		if validate == nil {
			t.Fatalf("GetCLIParser(%s) = nil", v)
		}
		if err := validate("vlan <vlan-id>"); err != nil {
			t.Errorf("%s: valid template rejected: %v", v, err)
		}
		if err := validate("vlan { <vlan-id>"); err == nil {
			t.Errorf("%s: invalid template accepted", v)
		}
	}
	if GetCLIParser("nope") != nil {
		t.Error("unknown vendor returned a parser")
	}
}

func TestStyledCLIHelper(t *testing.T) {
	doc := htmlparse.Parse(`<p class="cmd"><span class="kw">peer</span> <span class="arg">ipv4-address</span> { <span class="kw">import</span> | <span class="kw">export</span> }</p>`)
	container := doc.ByClass("cmd")[0]
	got := styledCLI(container, []string{"kw"}, []string{"arg"})
	want := "peer <ipv4-address> { import | export }"
	if got != want {
		t.Errorf("styledCLI = %q, want %q", got, want)
	}
}

func TestSectionsHelper(t *testing.T) {
	doc := htmlparse.Parse(`<body>
		<div class="t">A</div><p>a1</p><p>a2</p>
		<div class="t">B</div><pre>b1</pre>
	</body>`)
	sec := sections(doc, "t")
	if keys := sortedKeys(sec); !reflect.DeepEqual(keys, []string{"A", "B"}) {
		t.Fatalf("sections = %v", keys)
	}
	if len(sec["A"]) != 2 || len(sec["B"]) != 1 {
		t.Errorf("section sizes: A=%d B=%d", len(sec["A"]), len(sec["B"]))
	}
}

func TestExampleLinesHelper(t *testing.T) {
	doc := htmlparse.Parse("<pre>bgp 100\n peer 10.1.1.1 group test\n\n</pre>")
	got := exampleLines(doc.ByTag("pre")[0])
	want := []string{"bgp 100", " peer 10.1.1.1 group test"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exampleLines = %q, want %q", got, want)
	}
}

// The combined validating() report includes the §4-step-0 vendor
// constraints: a Huawei parser that drops the Examples section is caught
// by the ExamplesPresent constraint even though the base Table 3 type
// restriction allows an empty list.
func TestVendorConstraintInValidate(t *testing.T) {
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.Huawei).Scaled(0.02))
	man := manualgen.Render(m)
	pages := make([]Page, len(man.Pages))
	for i, pg := range man.Pages {
		pages[i] = Page{URL: pg.URL, HTML: pg.HTML}
	}
	broken := &Parser{vendor: "Huawei", parsePage: func(doc *htmlparse.Node) (corpus.Corpus, []ViewEdge) {
		c, edges := parseHuaweiPage(doc)
		c.Examples = nil // a parser version that never finds Examples
		return c, edges
	}}
	_, rep := broken.ParseAndValidate(context.Background(), pages)
	if rep.Passed() {
		t.Fatal("example-less Huawei parse passed validation")
	}
	found := false
	for test := range rep.ByTest() {
		if strings.Contains(test, "ExamplesPresent") {
			found = true
		}
	}
	if !found {
		t.Errorf("constraint violation missing: %v", rep.ByTest())
	}
}

// referenceParse is the test-side oracle for Parse: the vendor
// parsing() over a fresh DOM per page (htmlparse.Parse), one page at a
// time, with explicit edges deduplicated in page order. htmlparse's
// TestArenaMatchesReferenceOnManuals holds those DOMs equal to its
// reference builder on the same manuals.
func referenceParse(p *Parser, pages []Page) *Result {
	res := &Result{}
	seen := map[ViewEdge]bool{}
	for _, pg := range pages {
		c, edges := p.parsePage(htmlparse.Parse(pg.HTML))
		c.Vendor = p.vendor
		c.SourceURL = pg.URL
		res.Corpora = append(res.Corpora, c)
		for _, e := range edges {
			if !seen[e] {
				seen[e] = true
				res.Hierarchy = append(res.Hierarchy, e)
			}
		}
	}
	return res
}

// TestParseWorkersByteIdentical holds Parse equal to the reference DOM
// oracle — identical corpora and hierarchy at every worker count, which
// is what keeps worker counts out of the pipeline's artifact cache keys.
// The manuals are the scale-0.05 ones the root front-end goldens parse.
func TestParseWorkersByteIdentical(t *testing.T) {
	for _, v := range devmodel.AllVendors {
		v := v
		t.Run(string(v), func(t *testing.T) {
			m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(0.05))
			man := manualgen.Render(m)
			pages := make([]Page, len(man.Pages))
			for i, pg := range man.Pages {
				pages[i] = Page{URL: pg.URL, HTML: pg.HTML}
			}
			p, err := New(string(v))
			if err != nil {
				t.Fatal(err)
			}
			ref := referenceParse(p, pages)
			for _, workers := range []int{0, 1, 2, 8} {
				p.SetWorkers(workers)
				got := p.Parse(context.Background(), pages)
				if !reflect.DeepEqual(ref.Corpora, got.Corpora) {
					t.Errorf("workers=%d: corpora diverge from reference", workers)
				}
				if !reflect.DeepEqual(ref.Hierarchy, got.Hierarchy) {
					t.Errorf("workers=%d: hierarchy diverges from reference", workers)
				}
			}
		})
	}
}
