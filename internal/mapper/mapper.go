// Package mapper implements NAssim's Mapper (§6): fine-grained
// parameter-level mapping between a validated VDM and the controller's
// UDM. For every VDM parameter it extracts the semantic context parsed
// from the manual (§6.1), encodes it with a context encoder (§6.2),
// scores it against every UDM attribute with the weighted row-wise cosine
// of Equation 2, and emits the top-k recommendations a NetOps expert
// reviews. The composite IR+DL models shortlist with TF-IDF and re-rank
// with the encoder, as in §7.3's comparison.
//
// The scoring hot path is vectorized: every encoder output is a unit
// vector, so each row cosine equals a dot product, and Equation 2's
// weighted double sum collapses to KV dots against per-attribute
// precombined rows c_i = Σ_j w_ij·a_j stored as one flat contiguous
// matrix. MapAll fans a parameter batch across a bounded worker pool with
// order-stable output; Recommend is safe for concurrent use.
package mapper

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nassim/internal/nlp"
	"nassim/internal/telemetry"
	"nassim/internal/udm"
	"nassim/internal/vdm"
)

func init() {
	reg := telemetry.Default()
	reg.SetHelp("nassim_mapper_recommendations_total", "Top-k recommendation queries served, by model kind.")
	reg.SetHelp("nassim_mapper_recommend_seconds", "Latency of one Recommend call, by model kind.")
	reg.SetHelp("nassim_mapper_shortlist_size", "Candidate-set size scored by the DL stage per Recommend call.")
	reg.SetHelp("nassim_mapper_mapall_seconds", "Latency of one MapAll batch, by model kind and worker count.")
	reg.SetHelp("nassim_mapper_mapall_params", "Batch size (parameters) per MapAll call, by model kind.")
}

// ParamContext is the extracted semantic context of one VDM parameter: the
// k_V text sequences of §6.1 (parameter name, parameter description, CLI
// template, function description, parent views).
type ParamContext struct {
	Param     vdm.Parameter
	Sequences []string
}

// KV is the number of context sequences extracted per VDM parameter.
const KV = 5

// KU is the number of context sequences per UDM attribute.
const KU = 3

// ExtractContext collects the k_V context sequences of a parameter from
// its corpus. The first ParaDef entry naming the parameter wins; later
// duplicate entries no longer overwrite the description silently.
func ExtractContext(v *vdm.VDM, p vdm.Parameter) ParamContext {
	c := &v.Corpora[p.Corpus]
	paraInfo := ""
search:
	for _, pd := range c.ParaDef {
		for _, name := range strings.FieldsFunc(pd.Paras, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		}) {
			if strings.Trim(name, "<>") == p.Name {
				paraInfo = pd.Info
				break search
			}
		}
	}
	return ParamContext{
		Param: p,
		Sequences: []string{
			strings.ReplaceAll(p.Name, "-", " "),
			paraInfo,
			c.PrimaryCLI(),
			c.FuncDef,
			strings.Join(c.ParentViews, " ; "),
		},
	}
}

// Recommendation is one ranked UDM attribute for a VDM parameter.
type Recommendation struct {
	AttrIndex int
	Attr      udm.Attribute
	Score     float64
}

// Option configures a Mapper.
type Option func(*Mapper)

// WithShortlist sets the IR shortlist size for composite IR+DL models
// (§7.3 uses 50).
func WithShortlist(n int) Option {
	return func(m *Mapper) { m.shortlist = n }
}

// WithWeights sets the Equation 2 weight vector (length KV*KU, normalized
// internally). The default is uniform weighting.
func WithWeights(w []float64) Option {
	return func(m *Mapper) {
		m.weights = append([]float64(nil), w...)
	}
}

// WithMapWorkers bounds the MapAll worker pool (default GOMAXPROCS).
func WithMapWorkers(n int) Option {
	return func(m *Mapper) { m.mapWorkers = n }
}

// WithFloatScoring disables the int8-quantized candidate prune so every
// candidate is scored on the float path. This is the scalar reference
// configuration: the differential suite and the before/after benchmark
// rows compare the quantized scorer against it.
func WithFloatScoring() Option {
	return func(m *Mapper) { m.floatOnly = true }
}

// Mapper recommends UDM attributes for VDM parameters. Recommend and
// MapAll are safe for concurrent use; RefreshUDM and encoder fine-tuning
// mutate shared state and must not race with in-flight queries.
type Mapper struct {
	tree       *udm.Tree
	enc        nlp.Encoder // nil for pure IR
	ir         *nlp.TFIDF  // nil for pure DL
	shortlist  int
	weights    []float64
	mapWorkers int

	udmEmb [][]nlp.Vec // per attribute: KU context embeddings

	// comb is the precombined UDM matrix: row (a*KV + i) holds
	// c_i = Σ_j w[i*KU+j]·udmEmb[a][j], flat and contiguous (dim floats per
	// row). One Recommend then costs KV dots per attribute instead of
	// KV×KU cosines with norm recomputation.
	comb []float64
	dim  int

	// quant is the int8 image of comb (see quant.go). nil when the
	// mapper has no encoder or WithFloatScoring was requested; otherwise
	// Recommend prunes through it and rescores survivors on comb.
	quant     *quantMatrix
	floatOnly bool

	// Metric handles resolved once in New, keyed by model kind, so
	// Recommend (called per parameter, §7.3 benchmarks it) pays atomics only.
	telRecs    *telemetry.Counter
	telLatency *telemetry.Histogram
	telShort   *telemetry.Histogram
	telBatch   *telemetry.Histogram
}

// New builds a Mapper over a UDM tree. enc nil yields the IR baseline;
// useIR false yields a pure DL model; both yield the composite IR+DL.
func New(tree *udm.Tree, enc nlp.Encoder, useIR bool, opts ...Option) (*Mapper, error) {
	if enc == nil && !useIR {
		return nil, fmt.Errorf("mapper: need an encoder, IR, or both")
	}
	m := &Mapper{tree: tree, enc: enc, shortlist: 50}
	for _, o := range opts {
		o(m)
	}
	if useIR {
		docs := make([][]string, tree.Len())
		for i := range docs {
			docs[i] = nlp.Tokenize(strings.Join(tree.Context(i), " "))
		}
		m.ir = nlp.NewTFIDF(docs)
	}
	if enc != nil {
		m.dim = enc.Dim()
		if m.weights == nil {
			m.weights = make([]float64, KV*KU)
			for i := range m.weights {
				m.weights[i] = 1
			}
		}
		if len(m.weights) != KV*KU {
			return nil, fmt.Errorf("mapper: weight vector has %d entries, want %d", len(m.weights), KV*KU)
		}
		// Normalize so weights sum to 1 (Equation 2's constraint).
		sum := 0.0
		for _, w := range m.weights {
			sum += w
		}
		if sum <= 0 {
			return nil, fmt.Errorf("mapper: weight vector must have positive mass")
		}
		for i := range m.weights {
			m.weights[i] /= sum
		}
		m.udmEmb = make([][]nlp.Vec, tree.Len())
		for i := range m.udmEmb {
			ctx := tree.Context(i)
			rows := make([]nlp.Vec, len(ctx))
			for j, s := range ctx {
				rows[j] = enc.Encode(s)
			}
			m.udmEmb[i] = rows
		}
		m.rebuildComb()
	}
	m.telRecs = telemetry.GetCounter("nassim_mapper_recommendations_total", "model", m.Name())
	m.telLatency = telemetry.GetHistogram("nassim_mapper_recommend_seconds", nil, "model", m.Name())
	m.telShort = telemetry.GetHistogram("nassim_mapper_shortlist_size", telemetry.DefSizeBuckets, "model", m.Name())
	m.telBatch = telemetry.GetHistogram("nassim_mapper_mapall_params", telemetry.DefSizeBuckets, "model", m.Name())
	return m, nil
}

// Name describes the model combination ("IR", "SBERT", "IR+SBERT", ...).
func (m *Mapper) Name() string {
	switch {
	case m.ir != nil && m.enc != nil:
		return "IR+" + m.enc.Name()
	case m.enc != nil:
		return m.enc.Name()
	default:
		return "IR"
	}
}

// Fingerprint is the mapper's content identity: a sha256 over every input
// that can change what Recommend returns — the model combination, the
// shortlist size, the normalized Equation 2 weights, the encoder's
// settings and learned tables, and every UDM attribute (results carry
// the whole attribute). Float scoring and the MapAll worker count are
// left out because neither changes a score. It is computed on each call,
// so fine-tuning followed by RefreshUDM changes it with nothing to
// refresh; like RefreshUDM, it must not race with fine-tuning.
func (m *Mapper) Fingerprint() string {
	h := sha256.New()
	var frame [8]byte
	write := func(s string) {
		binary.BigEndian.PutUint64(frame[:], uint64(len(s)))
		h.Write(frame[:])
		io.WriteString(h, s)
	}
	write(m.Name())
	write(strconv.Itoa(m.shortlist))
	write(strconv.Itoa(len(m.weights)))
	for _, w := range m.weights {
		write(strconv.FormatUint(math.Float64bits(w), 16))
	}
	if m.enc != nil {
		m.enc.WriteIdentity(write)
	}
	for _, a := range m.tree.Attrs {
		write(a.ID)
		write(a.Name)
		write(a.Desc)
		write(strconv.Itoa(len(a.Path)))
		for _, p := range a.Path {
			write(p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rebuildComb recomputes the precombined UDM matrix from the current
// attribute embeddings and weights, and refreshes its int8 image.
func (m *Mapper) rebuildComb() {
	n := m.tree.Len()
	comb := make([]float64, n*KV*m.dim)
	for a := 0; a < n; a++ {
		rows := m.udmEmb[a]
		base := a * KV * m.dim
		for i := 0; i < KV; i++ {
			out := comb[base+i*m.dim : base+(i+1)*m.dim]
			for j, ae := range rows {
				if j >= KU || len(ae) != m.dim {
					continue
				}
				nlp.Axpy(m.weights[i*KU+j], ae, out)
			}
		}
	}
	m.comb = comb
	m.quant = nil
	if !m.floatOnly {
		m.quant = quantizeMatrix(comb, n*KV, m.dim)
	}
}

// RefreshUDM re-encodes the UDM attribute contexts and rebuilds the
// precombined matrices; call after fine-tuning the encoder in place.
func (m *Mapper) RefreshUDM() {
	if m.enc == nil {
		return
	}
	for i := range m.udmEmb {
		ctx := m.tree.Context(i)
		for j, s := range ctx {
			m.udmEmb[i][j] = m.enc.Encode(s)
		}
	}
	m.rebuildComb()
}

// dlScore computes Equation 2 on the vectorized path: because every
// embedding is unit-norm, each row cosine is a dot product, and the
// weighted double sum over KV×KU row pairs collapses to KV dots against
// the attribute's precombined rows.
func (m *Mapper) dlScore(paramEmb []nlp.Vec, attr int) float64 {
	base := attr * KV * m.dim
	score := 0.0
	for i, pe := range paramEmb {
		if i >= KV {
			break
		}
		score += nlp.Dot(pe, nlp.Vec(m.comb[base+i*m.dim:base+(i+1)*m.dim]))
	}
	return score
}

// Recommend returns the top-k UDM attributes for a parameter context,
// highest score first (ties break toward the lower attribute index).
func (m *Mapper) Recommend(ctx ParamContext, k int) []Recommendation {
	if k <= 0 {
		k = 10
	}
	start := time.Now()
	defer func() {
		m.telRecs.Inc()
		m.telLatency.ObserveDuration(time.Since(start))
	}()
	var candidates []int
	switch {
	case m.ir != nil && m.enc == nil:
		// Pure IR.
		ranked := m.ir.Rank(nlp.Tokenize(strings.Join(ctx.Sequences, " ")), k)
		out := make([]Recommendation, 0, len(ranked))
		for _, s := range ranked {
			out = append(out, Recommendation{AttrIndex: s.Doc, Attr: m.tree.Attrs[s.Doc], Score: s.Score})
		}
		return out
	case m.ir != nil:
		// Composite: IR shortlist, DL re-rank.
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
	m.telShort.Observe(float64(len(candidates)))
	paramEmb := make([]nlp.Vec, len(ctx.Sequences))
	for i, s := range ctx.Sequences {
		paramEmb[i] = m.enc.Encode(s)
	}
	var top []nlp.Scored
	if m.quant != nil && len(candidates) >= quantMinCandidates {
		top = m.scoreQuant(paramEmb, candidates, k)
	} else {
		scored := make([]nlp.Scored, len(candidates))
		for ci, a := range candidates {
			scored[ci] = nlp.Scored{Doc: a, Score: m.dlScore(paramEmb, a)}
		}
		top = nlp.TopKScored(scored, k)
	}
	out := make([]Recommendation, len(top))
	for i, s := range top {
		out[i] = Recommendation{AttrIndex: s.Doc, Attr: m.tree.Attrs[s.Doc], Score: s.Score}
	}
	return out
}

// MapAll recommends the top-k UDM attributes for every parameter context,
// fanning the batch across a bounded worker pool (GOMAXPROCS workers
// unless WithMapWorkers set a count). Output is order-stable: result i
// always belongs to ctxs[i], independent of the worker count.
// Cancellation stops the batch between parameters and returns the
// context's error.
func (m *Mapper) MapAll(ctx context.Context, ctxs []ParamContext, k int) ([][]Recommendation, error) {
	start := time.Now()
	workers := m.mapWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([][]Recommendation, len(ctxs))
	pool := telemetry.RunPool(workers, len(ctxs), func(_, i int) {
		if ctx.Err() == nil {
			results[i] = m.Recommend(ctxs[i], k)
		}
	})
	m.telBatch.Observe(float64(len(ctxs)))
	telemetry.GetHistogram("nassim_mapper_mapall_seconds", nil,
		"model", m.Name(), "workers", strconv.Itoa(pool.Workers)).
		ObserveDuration(time.Since(start))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Explain renders a recommendation list with the rich semantic context the
// paper emphasizes: experts judge a mapping directly from the output
// instead of searching the manual.
func Explain(ctx ParamContext, recs []Recommendation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "parameter %s (CLI: %s)\n", ctx.Param, ctx.Sequences[2])
	for i, r := range recs {
		fmt.Fprintf(&b, "  %2d. [%.4f] %s/%s — %s\n", i+1, r.Score, r.Attr.PathString(), r.Attr.Name, r.Attr.Desc)
	}
	return b.String()
}
