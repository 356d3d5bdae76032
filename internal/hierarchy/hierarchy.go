// Package hierarchy implements NAssim's model-hierarchy derivation and
// validation (§5.2). The CLI model hierarchy — which command enables which
// working view — is implicit in most manuals; the deriver recovers it by
// exploiting the 'Examples' fields: find the instance of the current
// command inside an example snippet, track back through the indentation to
// its parent instance, resolve that instance to its command template via
// the CLI graph models, and vote. Views whose snippet association is
// unreliable (one enter command strongly associated with several views, as
// in Figure 7) are recorded as ambiguous together with all potentially
// relevant snippets, for NetOps review. Vendors that publish their
// hierarchy explicitly (Nokia) bypass derivation through the explicit-edge
// path.
package hierarchy

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"nassim/internal/cgm"
	"nassim/internal/clisyntax"
	"nassim/internal/corpus"
	"nassim/internal/telemetry"
	"nassim/internal/vdm"
)

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_hierarchy_cgm_build_seconds", "Stage-1 time: syntax validation and CGM construction per Derive run.")
	reg.SetHelp("nassim_hierarchy_derive_seconds", "Stage-2 time: view-hierarchy derivation per Derive run.")
	reg.SetHelp("nassim_hierarchy_votes_total", "Snippet-evidence votes cast during hierarchy derivation, by strength.")
	reg.SetHelp("nassim_hierarchy_invalid_clis_total", "Templates rejected during Derive's formal syntax stage.")
}

// Edge is an explicit parent/child view relationship supplied by a parser
// with an explicit-hierarchy side channel.
type Edge struct {
	Parent string
	Child  string
}

// Report summarizes one derivation run. It is a function of the run's
// inputs: the pipeline caches it on disk, so it holds no durations. The
// timing split the paper reports (~84% of hierarchy time goes to CGM
// construction) is in the nassim_hierarchy_{cgm_build,derive}_seconds
// histograms.
type Report struct {
	RootView        string
	InvalidCLIs     int
	StrongVotes     int
	WeakVotes       int
	AmbiguousViews  []string
	UnresolvedViews []string // views left without an enter command
}

// String implements fmt.Stringer.
func (r *Report) String() string {
	return fmt.Sprintf("root=%q invalid=%d strong=%d weak=%d ambiguous=%d unresolved=%d",
		r.RootView, r.InvalidCLIs, r.StrongVotes, r.WeakVotes,
		len(r.AmbiguousViews), len(r.UnresolvedViews))
}

// ValidateSyntax runs the formal syntax validation + CGM construction
// stage alone (§5.1, the dominant cost in Table 4's construction time):
// every primary CLI template is checked against the vendor-independent
// syntax and compiled into a CLI graph model. It returns the populated CGM
// index and the rejected templates. The context is polled between
// templates; on cancellation the partial results so far are returned and
// ctx.Err() tells the caller the stage did not finish.
func ValidateSyntax(ctx context.Context, vendor string, corpora []corpus.Corpus, typeOf cgm.TypeResolver) (*cgm.Index, []vdm.InvalidCLI) {
	idx := cgm.NewIndex()
	var invalid []vdm.InvalidCLI
	for i := range corpora {
		if i&0xff == 0 && ctx.Err() != nil {
			break
		}
		tmpl := corpora[i].PrimaryCLI()
		if tmpl == "" {
			continue
		}
		if err := idx.Add(vdm.CorpusID(i), tmpl, typeOf); err != nil {
			invalid = append(invalid, toInvalid(i, tmpl, err))
		}
	}
	return idx, invalid
}

// Derive builds the validated VDM from a parsed corpus batch. explicit
// carries parser-extracted view edges (empty for vendors whose hierarchy
// must be derived from examples). typeOf may be nil for name-based
// parameter typing. Cancellation via ctx is honored between corpora; the
// returned VDM is then partial and the caller should discard it.
func Derive(ctx context.Context, vendor string, corpora []corpus.Corpus, explicit []Edge, typeOf cgm.TypeResolver) (*vdm.VDM, *Report) {
	ctx, span := telemetry.Span(ctx, "validate.hierarchy",
		"vendor", vendor, "corpora", len(corpora), "explicit_edges", len(explicit))
	defer span.End()

	// Stage 1: formal syntax validation + CGM construction.
	start := time.Now()
	idx, invalid := ValidateSyntax(ctx, vendor, corpora, typeOf)
	cgmTime := time.Since(start)
	v := &vdm.VDM{
		Vendor:      vendor,
		Corpora:     corpora,
		Views:       map[string]*vdm.ViewInfo{},
		Index:       idx,
		InvalidCLIs: invalid,
	}
	rep := &Report{InvalidCLIs: len(invalid)}

	// Stage 2: view universe and CLI-View pairs, straight from the corpus.
	start = time.Now()
	for i := range corpora {
		if i&0xff == 0 && ctx.Err() != nil {
			break
		}
		for _, view := range corpora[i].ParentViews {
			if _, ok := v.Views[view]; !ok {
				v.Views[view] = &vdm.ViewInfo{Name: view, EnterCorpus: -1}
			}
			v.Pairs = append(v.Pairs, vdm.Pair{Corpus: i, View: view})
		}
	}

	if len(explicit) > 0 {
		deriveExplicit(v, rep, explicit)
	} else {
		deriveFromExamples(v, rep)
	}
	deriveTime := time.Since(start)
	rep.AmbiguousViews = v.AmbiguousViews()

	telemetry.GetHistogram("nassim_hierarchy_cgm_build_seconds", nil, "vendor", vendor).ObserveDuration(cgmTime)
	telemetry.GetHistogram("nassim_hierarchy_derive_seconds", nil, "vendor", vendor).ObserveDuration(deriveTime)
	telemetry.GetCounter("nassim_hierarchy_votes_total", "kind", "strong").Add(int64(rep.StrongVotes))
	telemetry.GetCounter("nassim_hierarchy_votes_total", "kind", "weak").Add(int64(rep.WeakVotes))
	telemetry.GetCounter("nassim_hierarchy_invalid_clis_total", "vendor", vendor).Add(int64(rep.InvalidCLIs))
	telemetry.Logger(telemetry.ComponentHierarchy).Debug("derived hierarchy",
		"vendor", vendor, "root", rep.RootView, "invalid", rep.InvalidCLIs,
		"strong", rep.StrongVotes, "weak", rep.WeakVotes,
		"ambiguous", len(rep.AmbiguousViews), "unresolved", len(rep.UnresolvedViews),
		"cgm_build", cgmTime, "derive", deriveTime)
	return v, rep
}

func toInvalid(i int, tmpl string, err error) vdm.InvalidCLI {
	ic := vdm.InvalidCLI{Corpus: i, CLI: tmpl}
	var serr *clisyntax.SyntaxError
	if errors.As(err, &serr) {
		ic.Err = serr
	} else {
		ic.Err = &clisyntax.SyntaxError{Template: tmpl, Msg: err.Error()}
	}
	return ic
}

// deriveExplicit consumes parser-published hierarchy: edges give view
// parents; the 'Enables' extension key gives enter commands.
func deriveExplicit(v *vdm.VDM, rep *Report, explicit []Edge) {
	isChild := map[string]bool{}
	for _, e := range explicit {
		if info, ok := v.Views[e.Child]; ok {
			info.Parent = e.Parent
		} else {
			// A view appearing only as an intermediate context node.
			v.Views[e.Child] = &vdm.ViewInfo{Name: e.Child, Parent: e.Parent, EnterCorpus: -1}
		}
		if _, ok := v.Views[e.Parent]; !ok {
			v.Views[e.Parent] = &vdm.ViewInfo{Name: e.Parent, EnterCorpus: -1}
		}
		isChild[e.Child] = true
	}
	// The root is the view that is a parent but never a child.
	for name := range v.Views {
		if !isChild[name] {
			if v.RootView == "" || name < v.RootView {
				v.RootView = name
			}
		}
	}
	rep.RootView = v.RootView
	for i := range v.Corpora {
		if ev := v.Corpora[i].EnablesView; ev != "" {
			if info, ok := v.Views[ev]; ok && info.EnterCorpus < 0 {
				info.EnterCorpus = i
				rep.StrongVotes++
			}
		}
	}
	for name, info := range v.Views {
		if name != v.RootView && info.EnterCorpus < 0 {
			rep.UnresolvedViews = append(rep.UnresolvedViews, name)
		}
	}
	sort.Strings(rep.UnresolvedViews)
}

// indentOf measures the leading-space depth of an example line.
func indentOf(line string) int {
	return len(line) - len(strings.TrimLeft(line, " "))
}

// deriveFromExamples recovers hierarchy from the example snippets.
func deriveFromExamples(v *vdm.VDM, rep *Report) {
	// strong[view][enterCorpus] counts single-parent-view evidence;
	// weak[view][enterCorpus] counts multi-candidate evidence.
	strong := map[string]map[int]int{}
	weak := map[string]map[int]int{}
	snippets := map[string][]string{} // view -> relevant snippets
	rootVotes := map[string]int{}     // view name -> depth-0 evidence
	vote := func(m map[string]map[int]int, view string, enter int) {
		if m[view] == nil {
			m[view] = map[int]int{}
		}
		m[view][enter]++
	}

	for i := range v.Corpora {
		c := &v.Corpora[i]
		own := v.Index.Graph(vdm.CorpusID(i))
		if own == nil || len(c.ParentViews) == 0 {
			continue
		}
		for _, example := range c.Examples {
			snippet := strings.Join(example, "\n")
			// Locate this command's instance: the last matching line.
			ownIdx := -1
			for li := len(example) - 1; li >= 0; li-- {
				if own.Match(strings.TrimSpace(example[li])) {
					ownIdx = li
					break
				}
			}
			if ownIdx < 0 {
				continue
			}
			// Track back through indentation to the parent instance.
			parentIdx := -1
			for li := ownIdx - 1; li >= 0; li-- {
				if indentOf(example[li]) < indentOf(example[ownIdx]) {
					parentIdx = li
					break
				}
			}
			if parentIdx < 0 {
				// Top-level instance: evidence that the command's view is
				// the root view.
				if len(c.ParentViews) == 1 {
					rootVotes[c.ParentViews[0]]++
				}
				continue
			}
			// Prefer the most specific templates: a string parameter of one
			// template can shadow a keyword of another (cgm.Index.MatchBest).
			parents := v.Index.MatchBest(strings.TrimSpace(example[parentIdx]))
			for _, pid := range parents {
				p, err := vdm.ParseCorpusID(pid)
				if err != nil {
					continue
				}
				if len(c.ParentViews) == 1 {
					vote(strong, c.ParentViews[0], p)
					rep.StrongVotes++
					snippets[c.ParentViews[0]] = append(snippets[c.ParentViews[0]], snippet)
				} else {
					for _, view := range c.ParentViews {
						vote(weak, view, p)
						snippets[view] = append(snippets[view], snippet)
					}
					rep.WeakVotes++
				}
			}
		}
	}

	// Root view: majority of depth-0 evidence.
	best := 0
	for name, n := range rootVotes {
		if n > best || (n == best && (v.RootView == "" || name < v.RootView)) {
			best = n
			v.RootView = name
		}
	}
	rep.RootView = v.RootView

	// Enter command per view: majority strong vote, weak as fallback.
	enterViews := map[int][]string{} // enter corpus -> strongly won views
	for name, info := range v.Views {
		if name == v.RootView {
			continue
		}
		if enter, ok := majority(strong[name]); ok {
			info.EnterCorpus = enter
			enterViews[enter] = append(enterViews[enter], name)
			continue
		}
		if enter, ok := majority(weak[name]); ok {
			// Weak-only association: usable but inherently uncertain.
			info.EnterCorpus = enter
			info.Ambiguous = true
			info.RelevantSnippets = dedupe(snippets[name])
			continue
		}
		rep.UnresolvedViews = append(rep.UnresolvedViews, name)
	}
	sort.Strings(rep.UnresolvedViews)

	// Figure 7 ambiguity: one enter command strongly associated with
	// several views — the snippets cannot tell which view it demonstrates.
	for _, views := range enterViews {
		if len(views) < 2 {
			continue
		}
		for _, name := range views {
			info := v.Views[name]
			info.Ambiguous = true
			info.RelevantSnippets = dedupe(snippets[name])
		}
	}

	// Parent view: the working view of the enter command.
	for name, info := range v.Views {
		if name == v.RootView || info.EnterCorpus < 0 {
			continue
		}
		if pv := v.Corpora[info.EnterCorpus].ParentViews; len(pv) > 0 {
			info.Parent = pv[0]
		}
	}
}

// majority returns the most-voted key; ties break toward the smaller key
// so derivation is deterministic.
func majority(votes map[int]int) (int, bool) {
	bestKey, bestN := -1, 0
	for k, n := range votes {
		if n > bestN || (n == bestN && bestKey >= 0 && k < bestKey) {
			bestKey, bestN = k, n
		}
	}
	return bestKey, bestKey >= 0
}

func dedupe(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Issue is one inconsistency found while validating a derived hierarchy.
type Issue struct {
	View string
	Msg  string
}

// String implements fmt.Stringer.
func (i Issue) String() string { return fmt.Sprintf("view %q: %s", i.View, i.Msg) }

// ValidateHierarchy checks the structural consistency of a derived VDM:
// every non-root view must have an enter command whose own working view is
// the declared parent, and parent chains must reach the root acyclically.
func ValidateHierarchy(v *vdm.VDM) []Issue {
	var issues []Issue
	for name, info := range v.Views {
		if name == v.RootView {
			continue
		}
		if info.EnterCorpus < 0 {
			issues = append(issues, Issue{View: name, Msg: "no enter command derived"})
			continue
		}
		if info.Parent == "" {
			issues = append(issues, Issue{View: name, Msg: "no parent view"})
			continue
		}
		pv := v.Corpora[info.EnterCorpus].ParentViews
		ok := false
		for _, p := range pv {
			if p == info.Parent {
				ok = true
				break
			}
		}
		if !ok {
			issues = append(issues, Issue{View: name,
				Msg: fmt.Sprintf("enter command works under %v, not declared parent %q", pv, info.Parent)})
		}
		// Walk to the root, bounding by the view count to catch cycles.
		cur, steps := name, 0
		for cur != v.RootView {
			info := v.Views[cur]
			if info == nil || info.Parent == "" && cur != v.RootView {
				issues = append(issues, Issue{View: name, Msg: "parent chain does not reach the root view"})
				break
			}
			cur = info.Parent
			steps++
			if steps > len(v.Views) {
				issues = append(issues, Issue{View: name, Msg: "cycle in parent chain"})
				break
			}
		}
	}
	sort.Slice(issues, func(a, b int) bool {
		if issues[a].View != issues[b].View {
			return issues[a].View < issues[b].View
		}
		return issues[a].Msg < issues[b].Msg
	})
	return issues
}
