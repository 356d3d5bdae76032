package mapper

import (
	"strings"

	"nassim/internal/nlp"
)

// dlScoreNaive is the scalar reference for Equation 2: the weighted sum of
// the KV x KU pairwise row cosines, norms recomputed per pair. It is the
// executable specification the vectorized path is differentially tested
// against.
func (m *Mapper) dlScoreNaive(paramEmb []nlp.Vec, attr int) float64 {
	score := 0.0
	for i, pe := range paramEmb {
		for j, ae := range m.udmEmb[attr] {
			score += m.weights[i*KU+j] * nlp.Cosine(pe, ae)
		}
	}
	return score
}

// RecommendNaive is Recommend on the pre-vectorization scoring path:
// per-pair cosines over every candidate and no precombined rows. Golden
// tests compare Recommend against it; it is declared in a test file so
// that it ships in no binary.
func (m *Mapper) RecommendNaive(ctx ParamContext, k int) []Recommendation {
	if k <= 0 {
		k = 10
	}
	var candidates []int
	switch {
	case m.ir != nil && m.enc == nil:
		ranked := m.ir.Rank(nlp.Tokenize(strings.Join(ctx.Sequences, " ")), k)
		out := make([]Recommendation, 0, len(ranked))
		for _, s := range ranked {
			out = append(out, Recommendation{AttrIndex: s.Doc, Attr: m.tree.Attrs[s.Doc], Score: s.Score})
		}
		return out
	case m.ir != nil:
		ranked := m.ir.Rank(nlp.Tokenize(strings.Join(ctx.Sequences, " ")), m.shortlist)
		candidates = make([]int, len(ranked))
		for i, s := range ranked {
			candidates[i] = s.Doc
		}
	default:
		candidates = make([]int, m.tree.Len())
		for i := range candidates {
			candidates[i] = i
		}
	}
	paramEmb := make([]nlp.Vec, len(ctx.Sequences))
	for i, s := range ctx.Sequences {
		paramEmb[i] = m.enc.Encode(s)
	}
	scored := make([]nlp.Scored, len(candidates))
	for ci, a := range candidates {
		scored[ci] = nlp.Scored{Doc: a, Score: m.dlScoreNaive(paramEmb, a)}
	}
	top := nlp.TopKScored(scored, k)
	out := make([]Recommendation, len(top))
	for i, s := range top {
		out[i] = Recommendation{AttrIndex: s.Doc, Attr: m.tree.Attrs[s.Doc], Score: s.Score}
	}
	return out
}
