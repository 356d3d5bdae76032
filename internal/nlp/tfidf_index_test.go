package nlp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"testing"
)

// Norm returns the Euclidean norm.
func (v SparseVec) Norm() float64 {
	s := 0.0
	for _, w := range v {
		s += w * w
	}
	return math.Sqrt(s)
}

// CosineSparse computes the cosine similarity of two sparse vectors: the
// mathematical definition Rank's scores are held to within tolerance.
func CosineSparse(a, b SparseVec) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if len(b) < len(a) {
		a, b = b, a
	}
	dot := 0.0
	for t, w := range a {
		if w2, ok := b[t]; ok {
			dot += w * w2
		}
	}
	na, nb := a.Norm(), b.Norm()
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (na * nb)
}

// rankNaive is the pre-inverted-index reference scorer: every document
// scored, full stable sort. It is the executable specification Rank is
// differentially tested against.
func (t *TFIDF) rankNaive(query []string, k int) []Scored {
	qv := t.Vector(query)
	qn := normSorted(qv)
	terms := make([]string, 0, len(qv))
	for tok, w := range qv {
		if w != 0 {
			terms = append(terms, tok)
		}
	}
	sort.Strings(terms)
	out := make([]Scored, t.n)
	for i := range out {
		dot := 0.0
		for _, tok := range terms {
			if w2, ok := t.docs[i][tok]; ok {
				dot += qv[tok] * w2
			}
		}
		score := 0.0
		if dot != 0 && qn != 0 && t.docNorm[i] != 0 {
			score = dot / (qn * t.docNorm[i])
		}
		out[i] = Scored{Doc: i, Score: score}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// randomCorpus builds a deterministic synthetic corpus with heavy term
// overlap (many exact score ties) plus some empty and stopword-only
// documents — the shapes that stress tie-breaking and zero-score padding.
func randomCorpus(nDocs int, seed uint64) [][]string {
	r := rand.New(rand.NewPCG(seed, 0xc0))
	vocab := make([]string, 40)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("term%02d", i)
	}
	docs := make([][]string, nDocs)
	for i := range docs {
		switch i % 11 {
		case 9: // empty document
		case 10:
			docs[i] = []string{"the", "of", "and"} // stopwords only
		default:
			n := 3 + r.IntN(8)
			for j := 0; j < n; j++ {
				docs[i] = append(docs[i], vocab[r.IntN(len(vocab))])
			}
		}
	}
	return docs
}

// rankingDiff describes the first place two rankings disagree on a
// document or a score bit, or returns "" when they agree everywhere.
func rankingDiff(got, want []Scored) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("pos %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestRankMatchesNaive is the IR golden test: the inverted-index
// accumulator scorer must produce bit-identical scores and rankings to
// the full-scan reference on every query, for truncated and full ranks.
// Two indexes of different sizes are queried alternately through the
// shared scratch pool, then from 8 goroutines at once.
func TestRankMatchesNaive(t *testing.T) {
	indexes := []*TFIDF{NewTFIDF(randomCorpus(120, 5)), NewTFIDF(randomCorpus(333, 6))}
	type rankCase struct {
		idx  *TFIDF
		q    []string
		k    int
		want []Scored
	}
	r := rand.New(rand.NewPCG(8, 0x51))
	queries := [][]string{
		{"term00"},
		{"term01", "term02", "term03"},
		{"term04", "term04", "term09", "term04"},
		{"missing"},
		{},
		{"the", "of"}, // stopwords only -> zero query vector
	}
	for i := 0; i < 40; i++ {
		q := make([]string, 1+r.IntN(6))
		for j := range q {
			q[j] = fmt.Sprintf("term%02d", r.IntN(45)) // includes unindexed terms
		}
		queries = append(queries, q)
	}
	var cases []rankCase
	for _, q := range queries {
		for _, k := range []int{1, 3, 10, 50, 0, 120, 127} {
			for _, idx := range indexes {
				cases = append(cases, rankCase{idx, q, k, idx.rankNaive(q, k)})
			}
		}
	}
	for _, c := range cases {
		if d := rankingDiff(c.idx.Rank(c.q, c.k), c.want); d != "" {
			t.Fatalf("n=%d q=%v k=%d: %s", c.idx.Len(), c.q, c.k, d)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				c := cases[(i+g*31)%len(cases)]
				if d := rankingDiff(c.idx.Rank(c.q, c.k), c.want); d != "" {
					t.Errorf("goroutine %d, n=%d q=%v k=%d: %s", g, c.idx.Len(), c.q, c.k, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRankMatchesCosineSparse pins the scorer to the mathematical
// definition (cosine of tf-idf vectors) within floating-point tolerance —
// the pre-index implementation summed in randomized map order, so only
// tolerance-level agreement is defined against it.
func TestRankMatchesCosineSparse(t *testing.T) {
	docs := randomCorpus(80, 21)
	idx := NewTFIDF(docs)
	q := []string{"term01", "term05", "term05", "term17"}
	qv := idx.Vector(q)
	full := idx.Rank(q, 0)
	if len(full) != len(docs) {
		t.Fatalf("full rank = %d docs, want %d", len(full), len(docs))
	}
	for _, s := range full {
		ref := CosineSparse(qv, idx.docs[s.Doc])
		if math.Abs(s.Score-ref) > 1e-12 {
			t.Fatalf("doc %d: score %v vs CosineSparse %v", s.Doc, s.Score, ref)
		}
	}
}

func TestRankZeroScorePadding(t *testing.T) {
	docs := [][]string{
		{"alpha", "beta"},
		{"gamma"},
		{"delta"},
		{"alpha"},
	}
	idx := NewTFIDF(docs)
	got := idx.Rank([]string{"alpha"}, 4)
	if len(got) != 4 {
		t.Fatalf("len = %d", len(got))
	}
	// Docs 0 and 3 match; 1 and 2 pad with zero scores in index order.
	if got[0].Score <= 0 || got[1].Score <= 0 {
		t.Fatalf("matching docs not ranked first: %+v", got)
	}
	if got[2] != (Scored{Doc: 1}) || got[3] != (Scored{Doc: 2}) {
		t.Fatalf("zero padding wrong: %+v", got[2:])
	}
}

func TestRankDeterministicAcrossCalls(t *testing.T) {
	docs := randomCorpus(100, 33)
	idx := NewTFIDF(docs)
	q := []string{"term00", "term01", "term02"}
	first := idx.Rank(q, 20)
	for i := 0; i < 10; i++ {
		again := idx.Rank(q, 20)
		for j := range first {
			if first[j] != again[j] {
				t.Fatalf("call %d pos %d: %+v != %+v", i, j, again[j], first[j])
			}
		}
	}
}
