package nlp

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// Vec is a dense embedding vector.
type Vec []float64

// Cosine computes the cosine similarity of two dense vectors.
func Cosine(a, b Vec) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	dot, na, nb := 0.0, 0.0, 0.0
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Encoder turns a text sequence into a dense sentence embedding (§6.2's
// context encoding e(.)).
type Encoder interface {
	Name() string
	Encode(text string) Vec
	Dim() int
	// WriteIdentity passes write, one field per call, every setting and
	// table that can change what Encode returns: two encoders that write
	// the same fields encode every text alike. It reads the learned
	// tables, so it must not race with fine-tuning.
	WriteIdentity(write func(field string))
}

// tokenVector derives a deterministic unit vector for a token: the token
// hash seeds a PCG stream whose Gaussian draws fill the vector. Identical
// tokens embed identically everywhere, which is all that sentence-level
// cosine ranking over averaged token embeddings needs.
func tokenVector(tok string, dim int) Vec {
	h := fnv.New64a()
	h.Write([]byte(tok))
	r := rand.New(rand.NewPCG(h.Sum64(), 0x7ec7))
	v := make(Vec, dim)
	norm := 0.0
	for i := range v {
		v[i] = r.NormFloat64()
		norm += v[i] * v[i]
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] /= norm
	}
	return v
}

// denseEncoder is the shared core of the simulated pretrained encoders.
type denseEncoder struct {
	name string
	dim  int
	// anisotropy adds a common component along axis to every token
	// embedding, emulating the anisotropic embedding space of
	// contrastive-only pretraining: all cosines inflate toward a shared
	// direction, washing out small real differences (why SimCSE can rank
	// below even TF-IDF).
	anisotropy float64
	axis       Vec
	// canon maps synonym variants to canonical tokens — the model's
	// "pretraining knowledge" of general English.
	canon map[string]string
	// domain maps vendor-domain tokens to canonical domain tokens; empty
	// until fine-tuning (NetBERT) fills it.
	domain map[string]string
	// weighted applies stopword downweighting (the sentence-matching
	// pretraining objective of SBERT); without it common tokens dilute the
	// embedding, which is why the weaker model can underperform even IR.
	weighted bool

	// cache memoizes sentence embeddings. It is sharded and mutex-guarded
	// so one encoder can serve concurrent Recommend/MapAll callers; a nil
	// cache (zero-value encoder) just disables memoization.
	cache *vecCache
	// tokens memoizes tokenVector by canonical token. A canonical token's
	// vector depends only on the token and dim, so fine-tuning (which
	// changes which canonical token a raw token maps to) never invalidates
	// it, and the memo is bounded by the vocabulary the encoder has seen.
	// It is per encoder, like cache, so a fresh encoder starts cold.
	tokens *vecCache
}

func (e *denseEncoder) Name() string { return e.name }
func (e *denseEncoder) Dim() int     { return e.dim }

// WriteIdentity writes the name, dimension, weighting, anisotropy and the
// canon and domain tables in sorted key order. The anisotropy axis and the
// token vectors follow from the dimension, and the caches only memoize.
func (e *denseEncoder) WriteIdentity(write func(field string)) {
	write(e.name)
	write(strconv.Itoa(e.dim))
	write(strconv.FormatBool(e.weighted))
	write(strconv.FormatUint(math.Float64bits(e.anisotropy), 16))
	for _, table := range []map[string]string{e.canon, e.domain} {
		keys := make([]string, 0, len(table))
		for k := range table {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		write(strconv.Itoa(len(keys)))
		for _, k := range keys {
			write(k)
			write(table[k])
		}
	}
}

func (e *denseEncoder) canonicalize(tok string) string {
	if d, ok := e.domain[tok]; ok {
		tok = d
	}
	if c, ok := e.canon[tok]; ok {
		tok = c
	}
	return tok
}

// tokenVec returns tokenVector(tok, e.dim) through the token memo. tok may
// be a substring of a longer text, so the memo keeps a copy of the key.
func (e *denseEncoder) tokenVec(tok string) Vec {
	if e.tokens == nil {
		return tokenVector(tok, e.dim)
	}
	if v, ok := e.tokens.get(tok); ok {
		return v
	}
	v := tokenVector(tok, e.dim)
	e.tokens.put(strings.Clone(tok), v)
	return v
}

func (e *denseEncoder) Encode(text string) Vec {
	if e.cache != nil {
		if v, ok := e.cache.get(text); ok {
			return v
		}
	}
	out := make(Vec, e.dim)
	common := e.axis // nil unless the encoder is anisotropic
	for _, tok := range Tokenize(text) {
		tok = e.canonicalize(tok)
		w := 1.0
		if e.weighted && IsStopword(tok) {
			w = 0.1
		}
		tv := e.tokenVec(tok)
		for i := range out {
			out[i] += w * tv[i]
			if common != nil {
				out[i] += w * e.anisotropy * common[i]
			}
		}
	}
	norm := 0.0
	for _, x := range out {
		norm += x * x
	}
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i := range out {
			out[i] /= norm
		}
	}
	if e.cache != nil {
		e.cache.put(text, out)
	}
	return out
}

// NewSimCSE builds the SimCSE-tier encoder: contrastive pretraining gives
// it only part of the general-synonym vocabulary (the first half of the
// table) and uniform token weighting.
func NewSimCSE(dim int, generalSyn [][2]string) Encoder {
	canon := map[string]string{}
	for i, pair := range generalSyn {
		if i%3 == 0 {
			canon[pair[1]] = pair[0]
		}
	}
	return &denseEncoder{name: "SimCSE", dim: dim, canon: canon, anisotropy: 0.55,
		axis: tokenVector("\x00anisotropy-axis", dim), cache: newVecCache(), tokens: newVecCache()}
}

// NewSBERT builds the SBERT-tier encoder: the full general-synonym
// vocabulary plus stopword-aware weighting from its sentence-matching
// pretraining.
func NewSBERT(dim int, generalSyn [][2]string) Encoder {
	canon := map[string]string{}
	for _, pair := range generalSyn {
		canon[pair[1]] = pair[0]
	}
	return &denseEncoder{name: "SBERT", dim: dim, canon: canon, weighted: true,
		cache: newVecCache(), tokens: newVecCache()}
}

// NetBERT is the domain-adapted encoder of §6.3: SBERT plus a learned
// vendor-domain token alignment. Before fine-tuning it behaves exactly
// like SBERT (the paper's unsupervised setting).
type NetBERT struct {
	denseEncoder
}

// NewNetBERT builds an un-fine-tuned NetBERT (equivalent to SBERT).
func NewNetBERT(dim int, generalSyn [][2]string) *NetBERT {
	canon := map[string]string{}
	for _, pair := range generalSyn {
		canon[pair[1]] = pair[0]
	}
	return &NetBERT{denseEncoder{
		name: "NetBERT", dim: dim, canon: canon, weighted: true,
		domain: map[string]string{}, cache: newVecCache(), tokens: newVecCache(),
	}}
}

// TrainExample is one expert-annotated positive VDM-UDM parameter pair:
// the token contexts of both sides (§6.3's training corpus).
type TrainExample struct {
	Query  []string // VDM-side context tokens
	Target []string // UDM-side context tokens
}

// FineTuneStats reports what domain adaptation learned.
type FineTuneStats struct {
	Positives    int
	Negatives    int
	Alignments   int
	AlignmentMap map[string]string
}

// String implements fmt.Stringer.
func (s FineTuneStats) String() string {
	return fmt.Sprintf("fine-tuned on %d positives / %d negatives, learned %d domain alignments",
		s.Positives, s.Negatives, s.Alignments)
}

// FineTune performs domain adaptation on annotated pairs with 1:negRatio
// negative sampling (§6.3 uses 1:10) for the given number of epochs. The
// paper observes a single epoch suffices and more epochs overfit; here
// each additional epoch lowers the alignment acceptance threshold, pulling
// in noisier alignments — the same qualitative failure mode.
func (n *NetBERT) FineTune(positives []TrainExample, negRatio, epochs int, seed uint64) FineTuneStats {
	if negRatio <= 0 {
		negRatio = 10
	}
	if epochs <= 0 {
		epochs = 1
	}
	r := rand.New(rand.NewPCG(seed, 0xf17e))

	canonSeq := func(tokens []string) []string {
		out := make([]string, 0, len(tokens))
		for _, tok := range tokens {
			out = append(out, n.canonicalize(tok))
		}
		return out
	}
	type side struct{ q, t []string }
	sides := make([]side, len(positives))
	for i, ex := range positives {
		sides[i] = side{q: canonSeq(ex.Query), t: canonSeq(ex.Target)}
	}

	co := map[string]map[string]float64{} // src -> dst -> support
	dstFreq := map[string]float64{}
	srcQFreq := map[string]float64{} // sides whose query contains the token
	dstTFreq := map[string]float64{} // sides whose target contains the token
	for _, sd := range sides {
		seenQ := map[string]bool{}
		for _, tok := range sd.q {
			if !IsStopword(tok) && !seenQ[tok] {
				seenQ[tok] = true
				srcQFreq[tok]++
			}
		}
		seenT := map[string]bool{}
		for _, tok := range sd.t {
			if !IsStopword(tok) && !seenT[tok] {
				seenT[tok] = true
				dstTFreq[tok]++
			}
		}
	}
	add := func(s, d string, w float64) {
		if co[s] == nil {
			co[s] = map[string]float64{}
		}
		co[s][d] += w
	}
	// Positive evidence: diff the two token sequences; tokens substituted
	// between shared anchors are alignment candidates, weighted by how well
	// their positions inside the substituted segment correspond.
	for _, sd := range sides {
		for _, seg := range diffSegments(sd.q, sd.t) {
			for i, s := range seg.q {
				if IsStopword(s) {
					continue
				}
				for j, d := range seg.t {
					if IsStopword(d) {
						continue
					}
					// End-position correspondence outweighs start-position:
					// in noun phrases the substituted head noun is final
					// ("the neighbor" vs "the bgp peer" aligns
					// neighbor->peer, not neighbor->bgp).
					w := 0.25
					if i == j {
						w += 0.5
					}
					if len(seg.q)-i == len(seg.t)-j {
						w += 1.5
					}
					add(s, d, w)
				}
			}
		}
		seen := map[string]bool{}
		for _, d := range sd.t {
			if !IsStopword(d) && !seen[d] {
				seen[d] = true
				dstFreq[d]++
			}
		}
	}
	// Negative sampling: mismatched pairs contribute negative support so
	// coincidental co-occurrence cancels out.
	negatives := 0
	if len(sides) > 1 {
		for i := range sides {
			qset := map[string]bool{}
			for _, s := range sides[i].q {
				qset[s] = true
			}
			for k := 0; k < negRatio; k++ {
				j := r.IntN(len(sides))
				if j == i {
					continue
				}
				negatives++
				tset := map[string]bool{}
				for _, d := range sides[j].t {
					tset[d] = true
				}
				for s := range qset {
					if IsStopword(s) || tset[s] {
						continue
					}
					for d := range tset {
						if IsStopword(d) || qset[d] {
							continue
						}
						add(s, d, -1.0/float64(negRatio))
					}
				}
			}
		}
	}

	// Alignment extraction: for each source token pick the best-lifted
	// destination; acceptance threshold relaxes with extra epochs, pulling
	// in one-off substitutions (overfitting emulation).
	threshold := 3.0
	if epochs > 1 {
		threshold = 3.0 / float64(epochs)
	}
	srcs := make([]string, 0, len(co))
	for s := range co {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	n2 := float64(len(sides))
	for _, s := range srcs {
		// Style filler appearing in most queries cannot be a content
		// rename; a token also common on the TARGET side is shared
		// vocabulary, not vendor dialect — aligning either away would
		// corrupt every encoding that uses it.
		if srcQFreq[s] > 0.5*n2 || dstTFreq[s] > 0.2*n2 {
			continue
		}
		bestD, bestScore, bestSupport := "", 0.0, 0.0
		dsts := make([]string, 0, len(co[s]))
		for d := range co[s] {
			dsts = append(dsts, d)
		}
		sort.Strings(dsts)
		for _, d := range dsts {
			support := co[s][d]
			lift := support / (1 + dstFreq[d])
			if lift > bestScore {
				bestD, bestScore, bestSupport = d, lift, support
			}
		}
		if bestD != "" && bestSupport >= threshold {
			n.domain[s] = bestD
		}
	}
	// Learning new alignments invalidates cached sentence embeddings, but
	// not the token memo: it is keyed on canonical tokens.
	if n.cache != nil {
		n.cache.reset()
	}
	return FineTuneStats{
		Positives:    len(positives),
		Negatives:    negatives,
		Alignments:   len(n.domain),
		AlignmentMap: copyMap(n.domain),
	}
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
