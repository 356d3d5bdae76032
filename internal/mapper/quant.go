package mapper

// int8 quantization of the precombined UDM matrix. The float matrix is
// the memory-bandwidth wall of the DL scoring path: one pure-DL
// Recommend streams tree.Len()*KV*dim float64s through KV dots per
// attribute. Quantizing each precombined row to int8 with a symmetric
// per-row scale shrinks that stream 8x and turns the multiplies into
// int8×int8→int32 blocked dot products.
//
// Quantized scores are approximations, but the ranking the mapper emits
// must stay byte-identical to the float reference (the top-k goldens and
// the differential suite against the test-only naive scorer pin it). The
// scorer therefore never ranks on quantized values directly; it uses them
// as a certified prune:
//
//  1. For every candidate, compute the quantized score s̃ and a hard
//     error bound B with |s − s̃| ≤ B (s the real-arithmetic score):
//     per row pair, s̃ contributes sM·sP·(q_M·q_P) and the bound
//     sM·sP·(Σ|q_M|/2 + Σ|q_P|/2 + dim/4) — the worst case of the
//     ≤½-ulp rounding both quantizations introduce.
//  2. Let τ be the k-th largest lower bound (s̃ − B). Any candidate
//     whose upper bound (s̃ + B) falls below τ has a true score
//     strictly below k candidates' true scores and can never reach the
//     top k, under any tie-breaking.
//  3. Re-score only the survivors with the exact float path (dlScore)
//     and rank those. Survivor scores are bit-identical to the
//     unpruned path, so the output is too.
//
// The scalar float path stays in place as the executable reference
// (WithFloatScoring disables the quantized prune outright).

import (
	"math"

	"nassim/internal/nlp"
)

// boundSlack absolutely dominates float64 rounding in the bound
// arithmetic itself (scores are O(1); quantization bounds are O(1e-2)),
// so adding it keeps the prune certificate sound without measurably
// weakening it.
const boundSlack = 1e-9

// quantMinCandidates gates the prune: quantizing the query and running
// the certificate has a fixed per-query cost, which only pays for
// itself when the candidate set is large enough to amortize it (the
// pure-DL full-tree scan). Small sets — the composite model's IR
// shortlist — score on the float path directly. Var, not const, so
// tests can force the quantized path on small trees.
var quantMinCandidates = 128

// quantMatrix is the int8 image of the precombined matrix: q mirrors
// comb's layout (row r = attr*KV + i, dim entries), scale[r] is the
// symmetric dequantization step (maxabs/127) and sumAbs[r] = Σ|q[r·dim+k]|,
// the precomputed half of the row's error bound.
type quantMatrix struct {
	dim    int
	rows   int
	q      []int8
	scale  []float64
	sumAbs []int32
}

// quantizeMatrix builds the int8 image of a comb-layout float matrix.
func quantizeMatrix(comb []float64, rows, dim int) *quantMatrix {
	if rows <= 0 || dim <= 0 {
		return nil
	}
	qm := &quantMatrix{
		dim:    dim,
		rows:   rows,
		q:      make([]int8, rows*dim),
		scale:  make([]float64, rows),
		sumAbs: make([]int32, rows),
	}
	for r := 0; r < rows; r++ {
		s, sum := quantizeRow(comb[r*dim:(r+1)*dim], qm.q[r*dim:(r+1)*dim])
		qm.scale[r] = s
		qm.sumAbs[r] = sum
	}
	return qm
}

// quantizeRow writes the int8 quantization of row into q (len(q) ==
// len(row)) and returns the scale and Σ|q|. A zero row quantizes to
// scale 0, which the scorer reads as "exactly zero, no error".
func quantizeRow(row []float64, q []int8) (scale float64, sumAbs int32) {
	maxAbs := 0.0
	for _, v := range row {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		for i := range q {
			q[i] = 0
		}
		return 0, 0
	}
	scale = maxAbs / 127
	inv := 1 / scale
	for i, v := range row {
		iq := int32(math.Round(v * inv))
		if iq > 127 {
			iq = 127
		} else if iq < -127 {
			iq = -127
		}
		q[i] = int8(iq)
		if iq < 0 {
			iq = -iq
		}
		sumAbs += iq
	}
	return scale, sumAbs
}

// dotInt8 is the blocked int8 dot product: four independent int32
// accumulators retire four lanes per iteration without overflow risk
// (|a·b| ≤ 127² = 16129, so one accumulator holds >130k terms).
func dotInt8(a, b []int8) int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s0 + s1 + s2 + s3
}

// dotInt8Wide is the matrix-scan form of dotInt8: the query row is
// widened to int32 once per query (it is reused across every attribute),
// so the hot loop sign-extends only the matrix side. Arithmetic is
// identical to dotInt8 — same int32 lanes, same sums.
func dotInt8Wide(a []int8, b []int32) int32 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	a, b = a[:n], b[:n]
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += int32(a[i]) * b[i]
		s1 += int32(a[i+1]) * b[i+1]
		s2 += int32(a[i+2]) * b[i+2]
		s3 += int32(a[i+3]) * b[i+3]
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * b[i]
	}
	return s0 + s1 + s2 + s3
}

// scoreQuant ranks candidates through the certified quantized prune and
// returns the exact top-k (see the package comment above for the
// argument). The result is identical to scoring every candidate with
// dlScore and ranking with TopKScored.
func (m *Mapper) scoreQuant(paramEmb []nlp.Vec, candidates []int, k int) []nlp.Scored {
	if len(candidates) == 0 {
		return nil
	}
	qm := m.quant
	dim := qm.dim
	kv := len(paramEmb)
	if kv > KV {
		kv = KV
	}
	if k <= 0 || k > len(candidates) {
		k = len(candidates)
	}
	// Quantize the parameter rows once per query, widened to int32 so the
	// matrix scan sign-extends only the int8 side. A row whose length
	// disagrees with dim scores exactly zero on the float path
	// (nlp.Dot's length guard), which scale 0 reproduces.
	qp := make([]int8, dim)
	qp32 := make([]int32, kv*dim)
	pScale := make([]float64, kv)
	pHalf := make([]float64, kv) // Σ|q_P|/2 + dim/4, the query half of the bound
	for i := 0; i < kv; i++ {
		if len(paramEmb[i]) != dim {
			continue
		}
		s, sum := quantizeRow(paramEmb[i], qp)
		pScale[i] = s
		pHalf[i] = float64(sum)*0.5 + float64(dim)*0.25
		for j, v := range qp {
			qp32[i*dim+j] = int32(v)
		}
	}
	approx := make([]float64, len(candidates))
	bound := make([]float64, len(candidates))
	// τ: the k-th largest certified lower bound, tracked with a size-k
	// min-heap of plain values (ties are irrelevant — the certificate
	// only needs "at least k candidates have lower ≥ τ").
	tauHeap := make([]float64, 0, k)
	for ci, a := range candidates {
		s, b := 0.0, 0.0
		for i := 0; i < kv; i++ {
			sP := pScale[i]
			if sP == 0 {
				continue
			}
			r := a*KV + i
			sM := qm.scale[r]
			if sM == 0 {
				continue
			}
			d := dotInt8Wide(qm.q[r*dim:(r+1)*dim], qp32[i*dim:(i+1)*dim])
			ss := sM * sP
			s += ss * float64(d)
			b += ss * (float64(qm.sumAbs[r])*0.5 + pHalf[i])
		}
		b += boundSlack
		approx[ci] = s
		bound[ci] = b
		if lo := s - b; len(tauHeap) < k {
			tauHeap = append(tauHeap, lo)
			for j := len(tauHeap) - 1; j > 0; {
				p := (j - 1) / 2
				if tauHeap[p] <= tauHeap[j] {
					break
				}
				tauHeap[j], tauHeap[p] = tauHeap[p], tauHeap[j]
				j = p
			}
		} else if lo > tauHeap[0] {
			tauHeap[0] = lo
			for j := 0; ; {
				l, rt := 2*j+1, 2*j+2
				min := j
				if l < k && tauHeap[l] < tauHeap[min] {
					min = l
				}
				if rt < k && tauHeap[rt] < tauHeap[min] {
					min = rt
				}
				if min == j {
					break
				}
				tauHeap[j], tauHeap[min] = tauHeap[min], tauHeap[j]
				j = min
			}
		}
	}
	tau := tauHeap[0]
	// Exact float rescore of every candidate whose upper bound reaches τ.
	survivors := make([]nlp.Scored, 0, 2*k)
	for ci, a := range candidates {
		if approx[ci]+bound[ci] >= tau {
			survivors = append(survivors, nlp.Scored{Doc: a, Score: m.dlScore(paramEmb, a)})
		}
	}
	return nlp.TopKScored(survivors, k)
}
