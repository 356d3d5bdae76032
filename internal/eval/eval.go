// Package eval is the experiment harness: it regenerates every
// data-bearing table of the paper's evaluation (§7) — Table 1 (manual
// diversity), Table 2 (syntax comparison), Table 4 (VDM construction
// phase), Table 5 and the appendix Table 6 (Mapper performance) — plus the
// §7.3 headline acceleration. cmd/evalbench is the CLI front-end;
// EXPERIMENTS.md records paper-vs-measured for each artifact.
package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"nassim"
	"nassim/internal/configgen"
	"nassim/internal/devmodel"
	"nassim/internal/empirical"
	"nassim/internal/parser"
	"nassim/internal/pipeline"
)

// Table1Row documents one attribute's CSS class conventions across the
// four vendor manuals (Table 1), as implemented by the manual renderer and
// consumed by the vendor parsers.
type Table1Row struct {
	Attribute string
	Classes   map[string]string // vendor -> class/heading convention
}

// Table1 returns the manual-diversity table.
func Table1() []Table1Row {
	return []Table1Row{
		{"CLIs", map[string]string{
			"Huawei": `class="sectiontitle" Format (keywords: cmdname | strong)`,
			"Cisco":  `class="pCE_CmdEnv" | "pCENB_CmdEnv_NoBold" (keywords: cKeyword | cBold | cCN_CmdName)`,
			"Nokia":  `class="SyntaxHeader" Syntax`,
			"H3C":    `class="Command" Syntax`,
		}},
		{"FuncDef", map[string]string{
			"Huawei": `class="sectiontitle" Function`,
			"Cisco":  `class="pB1_Body1"`,
			"Nokia":  `class="DescriptionHeader" Description`,
			"H3C":    `class="Command" Description`,
		}},
		{"ParentViews", map[string]string{
			"Huawei": `class="sectiontitle" Views`,
			"Cisco":  `class="pCRCM_CmdRefCmdModes" Command Modes`,
			"Nokia":  `class="ContextHeader" Context`,
			"H3C":    `class="Command" View`,
		}},
		{"ParaDef", map[string]string{
			"Huawei": `class="sectiontitle" Parameters`,
			"Cisco":  `class="pCRSD_CmdRefSynDesc" Syntax Description`,
			"Nokia":  `class="ParametersHeader" Parameters`,
			"H3C":    `class="Command" Parameters`,
		}},
		{"Examples", map[string]string{
			"Huawei": `class="sectiontitle" Examples`,
			"Cisco":  `class="pCRE_CmdRefExample" Examples`,
			"Nokia":  `/`,
			"H3C":    `class="Command" Examples`,
		}},
	}
}

// FormatTable1 renders Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: Diversity of Device User Manuals\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s:\n", r.Attribute)
		for _, v := range []string{"Huawei", "Cisco", "Nokia", "H3C"} {
			fmt.Fprintf(&b, "  %-7s %s\n", v, r.Classes[v])
		}
	}
	return b.String()
}

// FormatTable2 renders Table 2 (configuration syntax comparison).
func FormatTable2() string {
	var b strings.Builder
	b.WriteString("Table 2: Configuration syntax comparisons across Cisco, Huawei, and Juniper\n")
	fmt.Fprintf(&b, "%-38s | %-38s | %-48s | %s\n", "Intent", "Cisco", "Huawei", "Juniper")
	for _, row := range devmodel.Table2Rows() {
		fmt.Fprintf(&b, "%-38s | %-38s | %-48s | %s\n", row.Intent,
			row.Commands[devmodel.Cisco], row.Commands[devmodel.Huawei], row.Commands[devmodel.Juniper])
	}
	return b.String()
}

// Table4Row is one vendor column of Table 4 (VDM construction phase).
type Table4Row struct {
	Vendor           string
	Commands         int
	Views            int
	CLIViewPairs     int
	ParsingLOC       int
	GetCLIParserLOC  int
	InvalidCLIs      int
	ExampleSnippets  int
	ConstructionTime time.Duration
	AmbiguousViews   int
	ConfigFiles      int
	ConfigLines      int
	UniqueLines      int
	UsedTemplates    int
	MatchingRatio    float64 // negative when not applicable
}

// Table4 runs the full VDM construction phase per vendor at the given
// scale (1.0 = paper scale) and assembles the Table 4 rows. Construction
// time is the engine's hierarchy stage time, which covers CGM generation
// plus hierarchy derivation, matching the paper's measurement.
func Table4(scale float64) ([]Table4Row, error) {
	var rows []Table4Row
	for _, vendor := range nassim.Vendors() {
		m, err := nassim.SyntheticModel(vendor, scale)
		if err != nil {
			return nil, err
		}
		asr, err := nassim.AssimilateModel(context.Background(), m)
		if err != nil {
			return nil, err
		}
		cost := parser.MeasureAdaptionCost(vendor)
		row := Table4Row{
			Vendor:           vendor,
			Commands:         len(asr.VDM.Corpora),
			Views:            len(asr.VDM.Views),
			CLIViewPairs:     asr.VDM.PairCount(),
			ParsingLOC:       cost.ParsingLOC,
			GetCLIParserLOC:  cost.GetCLIParserLOC,
			InvalidCLIs:      asr.PreCorrectionInvalid,
			ExampleSnippets:  m.ExampleCount(),
			ConstructionTime: asr.StageElapsed[pipeline.StageDeriveHierarchy],
			AmbiguousViews:   len(asr.VDM.AmbiguousViews()),
			MatchingRatio:    -1,
		}
		if files, ok := nassim.SyntheticConfigs(m, scale); ok {
			corpus := &configgen.Corpus{Vendor: m.Vendor, Files: files}
			rep := empirical.ValidateConfigs(context.Background(), asr.VDM, files)
			row.ConfigFiles = len(files)
			row.ConfigLines = rep.TotalLines
			row.UniqueLines = corpus.UniqueLines()
			row.UsedTemplates = rep.UsedTemplates()
			row.MatchingRatio = rep.MatchingRatio()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: Evaluation of the VDM Construction Phase\n")
	fmt.Fprintf(&b, "%-28s", "Vendor")
	for _, r := range rows {
		fmt.Fprintf(&b, " %14s", r.Vendor)
	}
	b.WriteByte('\n')
	line := func(label string, f func(Table4Row) string) {
		fmt.Fprintf(&b, "%-28s", label)
		for _, r := range rows {
			fmt.Fprintf(&b, " %14s", f(r))
		}
		b.WriteByte('\n')
	}
	line("#CLI Commands", func(r Table4Row) string { return fmt.Sprint(r.Commands) })
	line("#Views", func(r Table4Row) string { return fmt.Sprint(r.Views) })
	line("#CLI-View Pairs", func(r Table4Row) string { return fmt.Sprint(r.CLIViewPairs) })
	line("parsing() LOC", func(r Table4Row) string { return fmt.Sprint(r.ParsingLOC) })
	line("get_cli_parser() LOC", func(r Table4Row) string { return fmt.Sprint(r.GetCLIParserLOC) })
	line("#Invalid CLI Commands", func(r Table4Row) string { return fmt.Sprint(r.InvalidCLIs) })
	line("#Example Snippets", func(r Table4Row) string {
		if r.ExampleSnippets == 0 {
			return "/"
		}
		return fmt.Sprint(r.ExampleSnippets)
	})
	line("Construction Time", func(r Table4Row) string {
		return r.ConstructionTime.Round(time.Millisecond).String()
	})
	line("#Ambiguous Views", func(r Table4Row) string {
		if r.ExampleSnippets == 0 {
			return "/"
		}
		return fmt.Sprint(r.AmbiguousViews)
	})
	line("#Config Files", func(r Table4Row) string {
		if r.MatchingRatio < 0 {
			return "/"
		}
		return fmt.Sprint(r.ConfigFiles)
	})
	line("#Config Lines", func(r Table4Row) string {
		if r.MatchingRatio < 0 {
			return "/"
		}
		return fmt.Sprint(r.ConfigLines)
	})
	line("#Unique Lines", func(r Table4Row) string {
		if r.MatchingRatio < 0 {
			return "/"
		}
		return fmt.Sprint(r.UniqueLines)
	})
	line("#Used Templates", func(r Table4Row) string {
		if r.MatchingRatio < 0 {
			return "/"
		}
		return fmt.Sprint(r.UsedTemplates)
	})
	line("Matching Ratio", func(r Table4Row) string {
		if r.MatchingRatio < 0 {
			return "/"
		}
		return fmt.Sprintf("%.0f%%", 100*r.MatchingRatio)
	})
	return b.String()
}

// MapperTask is one mapping setting of Tables 5/6 (a vendor VDM against
// the UDM) with every model's results.
type MapperTask struct {
	Vendor  string
	Results []nassim.EvalResult
}

// MapperOptions configures a Table 5/6 run.
type MapperOptions struct {
	Scale    float64
	Ks       []int
	Seed     uint64
	NegRatio int
	Epochs   int
}

// Table5Ks is the recall@top-k grid of Table 5.
var Table5Ks = []int{1, 3, 5, 7, 9, 10, 20, 30}

// Table6Ks is the denser grid of the appendix Table 6.
var Table6Ks = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30}

// MapperEval runs the §7.3 comparison: both mapping settings (Huawei-UDM,
// Nokia-UDM), all seven models, with NetBERT fine-tuned cross-vendor (the
// paper's protocol: tuned on Nokia pairs, evaluated on Huawei, and vice
// versa; 1:10 negative sampling, one epoch).
func MapperEval(opts MapperOptions) ([]MapperTask, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1.0
	}
	if len(opts.Ks) == 0 {
		opts.Ks = Table5Ks
	}
	if opts.NegRatio <= 0 {
		opts.NegRatio = 10
	}
	if opts.Epochs <= 0 {
		opts.Epochs = 1
	}
	u := nassim.BuildUDM()
	type vendorData struct {
		vdm  *nassim.VDM
		anns []nassim.Annotation
	}
	vendors := []string{"Huawei", "Nokia"}
	data := map[string]vendorData{}
	for _, vendor := range vendors {
		m, err := nassim.SyntheticModel(vendor, opts.Scale)
		if err != nil {
			return nil, err
		}
		asr, err := nassim.AssimilateModel(context.Background(), m)
		if err != nil {
			return nil, err
		}
		data[vendor] = vendorData{
			vdm:  asr.VDM,
			anns: nassim.GroundTruthAnnotations(m, nassim.AnnotationCount(vendor), opts.Seed),
		}
	}
	cross := map[string]string{"Huawei": "Nokia", "Nokia": "Huawei"}
	var tasks []MapperTask
	for _, vendor := range vendors {
		task := MapperTask{Vendor: vendor}
		for _, kind := range nassim.AllModelKinds() {
			mp, err := nassim.NewMapper(u, kind)
			if err != nil {
				return nil, err
			}
			if kind == nassim.ModelNetBERT || kind == nassim.ModelIRNetBERT {
				tv := cross[vendor]
				if _, err := mp.FineTune(data[tv].vdm, u, data[tv].anns,
					opts.NegRatio, opts.Epochs, opts.Seed); err != nil {
					return nil, err
				}
			}
			task.Results = append(task.Results,
				nassim.Evaluate(mp, data[vendor].vdm, u, data[vendor].anns, opts.Ks))
		}
		tasks = append(tasks, task)
	}
	return tasks, nil
}

// FormatMapper renders Tables 5/6.
func FormatMapper(tasks []MapperTask, withMRR bool) string {
	var b strings.Builder
	for _, task := range tasks {
		fmt.Fprintf(&b, "Mapping setting: %s-UDM (n=%d)\n", task.Vendor, firstN(task.Results))
		fmt.Fprintf(&b, "%-12s", "Model")
		if len(task.Results) > 0 {
			ks := append([]int(nil), task.Results[0].Ks...)
			sort.Ints(ks)
			for _, k := range ks {
				fmt.Fprintf(&b, " r@%-4d", k)
			}
		}
		if withMRR {
			b.WriteString("   MRR")
		}
		b.WriteByte('\n')
		for _, res := range task.Results {
			fmt.Fprintf(&b, "%-12s", res.Model)
			for _, k := range res.Ks {
				fmt.Fprintf(&b, " %5.1f ", res.Recall[k])
			}
			if withMRR {
				fmt.Fprintf(&b, " %.4f", res.MRR)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func firstN(results []nassim.EvalResult) int {
	if len(results) == 0 {
		return 0
	}
	return results[0].N
}

// Headline computes the §7.3 acceleration claim from a mapper run: the
// best NetBERT-family recall@10 on the Huawei task determines how often
// engineers skip the manual. The paper's 89% top-10 recall yields 9.1x.
func Headline(tasks []MapperTask) (recall10 float64, acceleration float64) {
	for _, task := range tasks {
		if task.Vendor != "Huawei" {
			continue
		}
		for _, res := range task.Results {
			if strings.Contains(res.Model, "NetBERT") {
				if r := res.Recall[10]; r > recall10 {
					recall10 = r
				}
			}
		}
	}
	return recall10, nassim.AccelerationFactor(recall10)
}

// SanityChecks verifies the qualitative claims of §7.3 against a mapper
// run and returns the violated ones (empty = the paper's result shape
// holds). These are the invariants EXPERIMENTS.md reports on.
func SanityChecks(tasks []MapperTask) []string {
	var violations []string
	at := func(task MapperTask, model string, k int) float64 {
		for _, r := range task.Results {
			if r.Model == model {
				return r.Recall[k]
			}
		}
		return -1
	}
	byVendor := map[string]MapperTask{}
	for _, t := range tasks {
		byVendor[t.Vendor] = t
	}
	hw, okH := byVendor["Huawei"]
	nk, okN := byVendor["Nokia"]
	if !okH || !okN {
		return []string{"missing mapping settings"}
	}
	check := func(cond bool, msg string) {
		if !cond {
			violations = append(violations, msg)
		}
	}
	for _, k := range []int{1, 10} {
		check(at(hw, "SBERT", k) > at(hw, "SimCSE", k), fmt.Sprintf("Huawei: SBERT <= SimCSE at k=%d", k))
		check(at(nk, "SBERT", k) > at(nk, "SimCSE", k), fmt.Sprintf("Nokia: SBERT <= SimCSE at k=%d", k))
		check(at(hw, "NetBERT", k) >= at(hw, "SBERT", k), fmt.Sprintf("Huawei: NetBERT < SBERT at k=%d", k))
		check(at(nk, "NetBERT", k) >= at(nk, "SBERT", k), fmt.Sprintf("Nokia: NetBERT < SBERT at k=%d", k))
		check(at(hw, "IR+SBERT", k) >= at(hw, "SBERT", k), fmt.Sprintf("Huawei: IR+SBERT < SBERT at k=%d", k))
		// Huawei dominates Nokia (its wording sits closer to the UDM).
		for _, model := range []string{"IR", "SBERT", "NetBERT"} {
			check(at(hw, model, k) > at(nk, model, k),
				fmt.Sprintf("%s: Huawei <= Nokia at k=%d", model, k))
		}
	}
	// Supervision must beat plain retrieval where the paper's gap is
	// biggest (k=1: 57 vs 41 on Huawei, 34 vs 24 on Nokia). At k>=10 our
	// synthetic corpus gives IR a stronger lexical tail than the paper's
	// data, so the small-k comparison is the meaningful one (see
	// EXPERIMENTS.md).
	check(at(hw, "NetBERT", 1) > at(hw, "IR", 1), "Huawei: NetBERT <= IR at k=1")
	check(at(nk, "NetBERT", 1) > at(nk, "IR", 1), "Nokia: NetBERT <= IR at k=1")
	// SimCSE must not beat IR on Nokia (Table 5's crossover).
	check(at(nk, "SimCSE", 1) <= at(nk, "IR", 1), "Nokia: SimCSE beats IR at k=1")
	return violations
}

// ResultsDocument is the machine-readable export of an evaluation run:
// regression tooling diffs these instead of scraping formatted tables.
type ResultsDocument struct {
	Scale    float64
	Seed     uint64
	Table4   []Table4Row  `json:",omitempty"`
	Mapper   []MapperTask `json:",omitempty"`
	Headline *HeadlineDoc `json:",omitempty"`
	Checks   []string     `json:",omitempty"` // sanity-check violations ([] = all passed)
}

// HeadlineDoc is the exported §7.3 headline.
type HeadlineDoc struct {
	Recall10     float64
	Acceleration float64
}

// ExportJSON renders the document as indented JSON.
func (d *ResultsDocument) ExportJSON() ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}
