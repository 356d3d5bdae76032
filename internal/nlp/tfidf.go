package nlp

import (
	"math"
	"sort"
	"sync"
)

// SparseVec is a sparse term-weight vector.
type SparseVec map[string]float64

// posting is one inverted-index entry: a document and its tf-idf weight
// for the term. Posting lists are stored in ascending document order.
type posting struct {
	doc    int32
	weight float64
}

// TFIDF is the information-retrieval baseline of §7.3: documents are
// indexed with tf-idf weights and queries are scored by cosine similarity.
// Scoring runs over an inverted index (term -> posting list, with
// precomputed document norms) and an accumulator array, so query cost
// scales with the posting-list mass the query actually touches rather
// than with corpus size.
type TFIDF struct {
	df       map[string]int
	n        int
	docs     []SparseVec
	postings map[string][]posting
	docNorm  []float64
}

// NewTFIDF indexes a document collection (each document pre-tokenized).
func NewTFIDF(docs [][]string) *TFIDF {
	t := &TFIDF{df: map[string]int{}, n: len(docs)}
	for _, doc := range docs {
		seen := map[string]bool{}
		for _, tok := range doc {
			if IsStopword(tok) {
				continue
			}
			if !seen[tok] {
				seen[tok] = true
				t.df[tok]++
			}
		}
	}
	t.docs = make([]SparseVec, len(docs))
	t.postings = map[string][]posting{}
	t.docNorm = make([]float64, len(docs))
	for i, doc := range docs {
		dv := t.Vector(doc)
		t.docs[i] = dv
		t.docNorm[i] = normSorted(dv)
		// Zero-weight terms (idf 0: the term occurs in every document)
		// contribute exactly 0.0 to any dot product, so skipping their
		// postings changes no score bit.
		for tok, w := range dv {
			if w != 0 {
				t.postings[tok] = append(t.postings[tok], posting{doc: int32(i), weight: w})
			}
		}
	}
	return t
}

// idf returns the smoothed inverse document frequency of a term.
func (t *TFIDF) idf(tok string) float64 {
	return math.Log(float64(1+t.n) / float64(1+t.df[tok]))
}

// Vector computes the tf-idf vector of a tokenized text against the index.
func (t *TFIDF) Vector(tokens []string) SparseVec {
	tf := map[string]int{}
	for _, tok := range tokens {
		if IsStopword(tok) {
			continue
		}
		tf[tok]++
	}
	v := SparseVec{}
	for tok, n := range tf {
		v[tok] = (1 + math.Log(float64(n))) * t.idf(tok)
	}
	return v
}

// normSorted is SparseVec.Norm with the squares accumulated in sorted
// term order. Map-iteration accumulation is randomized per run, and the
// resulting ULP jitter in norms (and dots) flipped near-tied rankings
// between runs of the pre-index scorer; every sum on the ranking path is
// now order-fixed so identical inputs rank identically in every process.
func normSorted(v SparseVec) float64 {
	terms := make([]string, 0, len(v))
	for tok := range v {
		terms = append(terms, tok)
	}
	sort.Strings(terms)
	s := 0.0
	for _, tok := range terms {
		s += v[tok] * v[tok]
	}
	return math.Sqrt(s)
}

// Scored is one ranked document.
type Scored struct {
	Doc   int
	Score float64
}

// rankScratch is one query's working memory in Rank: a score accumulator
// and a visited flag per document, the documents touched, and the query's
// terms and weights. Rank zeroes every touched entry before returning it
// to rankPool, so one scratch serves indexes of any size.
type rankScratch struct {
	acc     []float64
	visited []bool
	touched []int32
	terms   []string
	weights []float64
}

var rankPool = sync.Pool{New: func() any { return new(rankScratch) }}

// Rank scores the query against the indexed documents and returns the top
// k (k <= 0 ranks everything). Ties break toward the lower document index
// so ranking is deterministic. Only documents sharing a term with the
// query are scored through the inverted index; documents the query never
// touches score 0 and pad the tail in index order, exactly as the dense
// scorer ranked them.
func (t *TFIDF) Rank(query []string, k int) []Scored {
	if k <= 0 || k > t.n {
		k = t.n
	}
	sc := rankPool.Get().(*rankScratch)
	if len(sc.acc) < t.n {
		sc.acc = make([]float64, t.n)
		sc.visited = make([]bool, t.n)
	}
	// The query's tf-idf vector as Vector computes it, but as (term,
	// weight) pairs in sorted term order: runs of equal tokens in a sorted
	// copy of the query are the term frequencies.
	q := append(sc.terms[:0], query...)
	sort.Strings(q)
	terms, weights := q[:0], sc.weights[:0]
	for i := 0; i < len(q); {
		j := i + 1
		for j < len(q) && q[j] == q[i] {
			j++
		}
		if tok := q[i]; !IsStopword(tok) {
			terms = append(terms, tok)
			weights = append(weights, (1+math.Log(float64(j-i)))*t.idf(tok))
		}
		i = j
	}
	// Squares and partial dot products accumulate in sorted term order
	// (the order normSorted uses for document norms), so every score is
	// the same in every process.
	s := 0.0
	for _, w := range weights {
		s += w * w
	}
	qn := math.Sqrt(s)
	touched := sc.touched[:0]
	if qn != 0 {
		for i, tok := range terms {
			w := weights[i]
			if w == 0 {
				continue
			}
			for _, p := range t.postings[tok] {
				if !sc.visited[p.doc] {
					sc.visited[p.doc] = true
					touched = append(touched, p.doc)
				}
				sc.acc[p.doc] += w * p.weight
			}
		}
	}
	h := topKHeap{k: k, items: make([]Scored, 0, k)}
	for _, d := range touched {
		h.push(Scored{Doc: int(d), Score: sc.acc[d] / (qn * t.docNorm[d])})
	}
	out := h.sorted()
	// Untouched documents all score exactly 0, below every accumulated
	// score (posting weights are strictly positive): fill any remaining
	// slots in ascending index order, the dense tie-break.
	for d := 0; d < t.n && len(out) < k; d++ {
		if !sc.visited[d] {
			out = append(out, Scored{Doc: d})
		}
	}
	for _, d := range touched {
		sc.acc[d], sc.visited[d] = 0, false
	}
	clear(q)
	sc.terms, sc.weights, sc.touched = q[:0], weights[:0], touched[:0]
	rankPool.Put(sc)
	return out
}

// Len returns the number of indexed documents.
func (t *TFIDF) Len() int { return len(t.docs) }
