package nassim_test

// Golden test for the CGM template index on the built-in vendor models:
// the keyed Match and MatchBest must answer every line the pipeline looks
// up exactly as a brute-force scan over every registered template does.

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"nassim"
	"nassim/internal/cgm"
)

// scanIndex is the oracle: every template of the index, in insertion
// order (the natural order of the sequential corpus IDs), through
// Graph.Match and Graph.Specificity.
func scanIndex(ix *cgm.Index, line string) (match, best []string) {
	toks := strings.Fields(line)
	bestScore := -1
	for _, id := range ix.IDs() {
		g := ix.Graph(id)
		if g.Match(line) {
			match = append(match, id)
		}
		switch score := g.Specificity(toks); {
		case score < 0:
		case score > bestScore:
			bestScore, best = score, []string{id}
		case score == bestScore:
			best = append(best, id)
		}
	}
	return match, best
}

// TestIndexMatchFourVendorGolden checks every configuration line, manual
// example line and primary CLI of each vendor at scale 0.05.
func TestIndexMatchFourVendorGolden(t *testing.T) {
	ctx := context.Background()
	for _, vendor := range nassim.Vendors() {
		vendor := vendor
		t.Run(vendor, func(t *testing.T) {
			m, err := nassim.SyntheticModel(vendor, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := nassim.ParseManual(ctx, vendor, nassim.SyntheticManual(m))
			if err != nil {
				t.Fatal(err)
			}
			v, _ := nassim.BuildVDM(ctx, vendor, pr.Corpora, pr.Hierarchy)
			nassim.ApplyCorrections(pr.Corpora, nassim.ExpertCorrections(m, v.InvalidCLIs))
			v, _ = nassim.BuildVDM(ctx, vendor, pr.Corpora, pr.Hierarchy)

			seen := map[string]bool{}
			var lines []string
			add := func(line string) {
				if line = strings.TrimSpace(line); !seen[line] {
					seen[line] = true
					lines = append(lines, line)
				}
			}
			for i := range v.Corpora {
				add(v.Corpora[i].PrimaryCLI())
				for _, example := range v.Corpora[i].Examples {
					for _, line := range example {
						add(line)
					}
				}
			}
			if files, ok := nassim.SyntheticConfigs(m, 0.05); ok {
				for _, f := range files {
					for _, line := range f.Lines {
						add(line)
					}
				}
			}
			sort.Strings(lines)

			matched := 0
			for _, line := range lines {
				match, best := scanIndex(v.Index, line)
				if got := v.Index.Match(line); !reflect.DeepEqual(got, match) {
					t.Errorf("Match(%q) = %v, linear scan %v", line, got, match)
				}
				if got := v.Index.MatchBest(line); !reflect.DeepEqual(got, best) {
					t.Errorf("MatchBest(%q) = %v, linear scan %v", line, got, best)
				}
				if len(match) > 0 {
					matched++
				}
			}
			if matched == 0 {
				t.Fatalf("none of %d lines matches a template", len(lines))
			}
			t.Logf("%d templates, %d distinct lines, %d matched", v.Index.Len(), len(lines), matched)
		})
	}
}
