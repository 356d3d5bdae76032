package cgm

import (
	"fmt"
	"sort"
	"strings"
)

// Index resolves CLI instances to the command templates they instantiate,
// across a whole device model. Hierarchy derivation and empirical
// validation both need this lookup for every configuration line, so the
// index files each graph under its first keyword, or under its first two
// keywords where the automaton fixes the second, and runs, per line, only
// the automata that can get past the second token. A vendor with
// thousands of `description tag-N <text>` templates then runs one
// automaton per `description` line, not thousands.
type Index struct {
	byKey  map[string][]indexEntry // Graph.keys -> graphs; written only by register
	graphs map[string]*Graph
	order  []string // insertion order of template IDs, for determinism
}

type indexEntry struct {
	id string
	g  *Graph
	// Token-count bounds of the graph, copied here so the Match hot loop
	// prunes without touching the graph's cache lines.
	minToks, maxToks int
}

// NewIndex returns an empty template index.
func NewIndex() *Index {
	return &Index{byKey: map[string][]indexEntry{}, graphs: map[string]*Graph{}}
}

// Add parses the template, builds its CGM and registers it under the given
// ID. Adding fails exactly when the template fails formal syntax
// validation; the caller records such templates for expert review instead.
func (ix *Index) Add(id, template string, typeOf TypeResolver) error {
	if _, dup := ix.graphs[id]; dup {
		return fmt.Errorf("cgm: duplicate template id %q", id)
	}
	g, err := FromTemplate(template, typeOf)
	if err != nil {
		telTemplateErrors.Inc()
		return err
	}
	telTemplatesAdded.Inc()
	ix.register(id, g)
	return nil
}

// register records a graph under a new ID and files it under each of its
// index keys. Index.Add and DecodeIndexBinary both file through it. The
// keys come with the compiled graph, so registering allocates nothing per
// template beyond the list appends.
func (ix *Index) register(id string, g *Graph) {
	ix.graphs[id] = g
	ix.order = append(ix.order, id)
	e := indexEntry{id: id, g: g, minToks: g.minToks, maxToks: g.maxToks}
	for _, k := range g.keys {
		ix.byKey[k] = append(ix.byKey[k], e)
	}
}

// indexKeys returns the keys the index files the graph under, each once.
// For a leading keyword k the key is "k t", for each keyword t that can
// follow k, when every root successor is a keyword and every state that
// can follow a k state is a keyword too; otherwise it is "k" alone. The
// pair keys are exact under both matchers. The first token of an instance
// `k u ...` leaves only the k states, with keyword priority (MatchTokens)
// and without it (Specificity) alike. Their successors are all keywords,
// so u must equal one of their texts t, and none of them is the terminal,
// so a one-token instance never accepts either. A lookup that visits "k"
// and "k u" therefore runs every automaton that can accept the instance.
// Keywords hold no whitespace, so "k" never equals a pair key.
func (g *Graph) indexKeys() []string {
	roots := g.succ[g.root]
	keyedRoots := g.keywordsOnly(roots)
	var keys []string
	for _, s := range roots {
		first := g.nodes[s]
		if first.kind != KindKeyword {
			continue // a parameter or the terminal keys nothing
		}
		if !keyedRoots || !g.keywordsFollow(first.text) {
			keys = appendNew(keys, first.text)
			continue
		}
		for _, t := range g.succ[s] {
			keys = appendNew(keys, first.text+" "+g.nodes[t].text)
		}
	}
	return keys
}

// appendNew appends k unless keys already holds it: a graph has a handful
// of keys, so a scan beats a set.
func appendNew(keys []string, k string) []string {
	for _, x := range keys {
		if x == k {
			return keys
		}
	}
	return append(keys, k)
}

// keywordsOnly reports whether every listed state is a keyword state.
func (g *Graph) keywordsOnly(states []int) bool {
	for _, s := range states {
		if g.nodes[s].kind != KindKeyword {
			return false
		}
	}
	return true
}

// keywordsFollow reports whether every state that can follow a leading
// keyword state with text k is a keyword state.
func (g *Graph) keywordsFollow(k string) bool {
	for _, s := range g.succ[g.root] {
		if n := g.nodes[s]; n.kind == KindKeyword && n.text == k && !g.keywordsOnly(g.succ[s]) {
			return false
		}
	}
	return true
}

// candidates returns the two lists that together hold every template the
// tokens can match: the graphs keyed by the first token alone and, for two
// tokens or more, those keyed by the first two (see indexKeys).
func (ix *Index) candidates(toks []string) (first, firstTwo []indexEntry) {
	if len(toks) == 0 {
		return nil, nil
	}
	if len(toks) > 1 {
		var buf [64]byte // the pair key, built without allocating
		key := append(append(append(buf[:0], toks[0]...), ' '), toks[1]...)
		firstTwo = ix.byKey[string(key)]
	}
	return ix.byKey[toks[0]], firstTwo
}

// Match returns the IDs of all templates the instance matches. Candidates
// found by the instance's first two tokens are pruned by their token-count
// bounds before the FSM runs. Results come back in natural ID order
// (numeric when both IDs are decimal, lexicographic otherwise), which is
// independent of registration order — two indices built from differently
// ordered corpora answer identically — and coincides with insertion order
// for the sequentially numbered corpus IDs the pipeline uses.
func (ix *Index) Match(instance string) []string {
	telMatchAttempts.Inc()
	toks := strings.Fields(instance)
	n := len(toks)
	first, firstTwo := ix.candidates(toks)
	var out []string
	for _, list := range [2][]indexEntry{first, firstTwo} {
		for _, e := range list {
			if n < e.minToks || n > e.maxToks {
				telMatchPruned.Inc()
				continue
			}
			if e.g.MatchTokens(toks) {
				out = append(out, e.id)
			}
		}
	}
	sortNaturalIDs(out)
	return out
}

// MatchBest returns only the most specific matching templates: among all
// templates the instance matches, those explaining the most tokens as
// exact keywords. This is the disambiguation hierarchy derivation uses
// when a string parameter of one template shadows a keyword of another.
// It runs the same candidates as Match.
func (ix *Index) MatchBest(instance string) []string {
	telMatchAttempts.Inc()
	toks := strings.Fields(instance)
	n := len(toks)
	first, firstTwo := ix.candidates(toks)
	best := -1
	var out []string
	for _, list := range [2][]indexEntry{first, firstTwo} {
		for _, e := range list {
			if n < e.minToks || n > e.maxToks {
				telMatchPruned.Inc()
				continue
			}
			score := e.g.Specificity(toks)
			if score < 0 {
				continue
			}
			switch {
			case score > best:
				best = score
				out = append(out[:0], e.id)
			case score == best:
				out = append(out, e.id)
			}
		}
	}
	sortNaturalIDs(out)
	return out
}

// sortNaturalIDs orders template IDs numerically when both are plain
// decimals and lexicographically otherwise, making Match results a pure
// function of the registered template set.
func sortNaturalIDs(ids []string) {
	if len(ids) < 2 {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return naturalLessID(ids[i], ids[j]) })
}

func naturalLessID(a, b string) bool {
	na, aok := parseDecimal(a)
	nb, bok := parseDecimal(b)
	if aok && bok {
		return na < nb
	}
	return a < b
}

func parseDecimal(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Graph returns the CGM registered under the ID, or nil.
func (ix *Index) Graph(id string) *Graph { return ix.graphs[id] }

// IDs returns the registered template IDs in insertion order.
func (ix *Index) IDs() []string {
	out := make([]string, len(ix.order))
	copy(out, ix.order)
	return out
}

// Len returns the number of registered templates.
func (ix *Index) Len() int { return len(ix.graphs) }
