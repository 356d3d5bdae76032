package nlp

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/udm"
)

// encodeReference is Encode with no cache of any kind: every token's
// vector is derived afresh and the anisotropy axis is re-derived per
// sentence, term by term in the same order as Encode.
func encodeReference(e *denseEncoder, text string) Vec {
	out := make(Vec, e.dim)
	var common Vec
	if e.anisotropy > 0 {
		common = tokenVector("\x00anisotropy-axis", e.dim)
	}
	for _, tok := range Tokenize(text) {
		tok = e.canonicalize(tok)
		w := 1.0
		if e.weighted && IsStopword(tok) {
			w = 0.1
		}
		tv := tokenVector(tok, e.dim)
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
	return out
}

// goldenSentences returns every UDM attribute context sentence plus
// random sentences over UDM words, synonym variants, the fine-tuning
// vocabulary, mixed case, digits and punctuation.
func goldenSentences() []string {
	tree := udm.Build(devmodel.Concepts())
	var out []string
	vocab := []string{"neighbor", "Peer", "service", "VLAN", "port", "interface", "the", "of",
		"as-number", "ipv4", "10", "MTU,", "display", "show", "(bgp)", "é", "queue;"}
	for i := 0; i < tree.Len(); i++ {
		ctx := tree.Context(i)
		out = append(out, ctx...)
		vocab = append(vocab, strings.Fields(ctx[0])...)
	}
	for _, pair := range devmodel.GeneralSynonyms() {
		vocab = append(vocab, pair[0], pair[1])
	}
	r := rand.New(rand.NewPCG(15, 0xe7c))
	for i := 0; i < 300; i++ {
		words := make([]string, 1+r.IntN(12))
		for j := range words {
			words[j] = vocab[r.IntN(len(vocab))]
		}
		out = append(out, strings.Join(words, " "))
	}
	return out
}

func sameBits(a, b Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEncodeGolden compares Encode against encodeReference bit for bit
// on every sentence, on the first call and on a repeat call.
func checkEncodeGolden(t *testing.T, label string, enc Encoder, e *denseEncoder, sentences []string) {
	t.Helper()
	for _, call := range []string{"first", "repeat"} {
		for _, s := range sentences {
			if got, want := enc.Encode(s), encodeReference(e, s); !sameBits(got, want) {
				t.Fatalf("%s, %s call of %q:\n got %v\nwant %v", label, call, s, got, want)
			}
		}
	}
}

// TestEncodeMatchesReference pins the token memo and the precomputed
// anisotropy axis: every encoder's output equals the uncached reference
// bit for bit, and after NetBERT fine-tuning (which remaps raw tokens the
// memo has already seen) encodings follow the new alignments.
func TestEncodeMatchesReference(t *testing.T) {
	sentences := goldenSentences()
	syn := devmodel.GeneralSynonyms()
	simcse := NewSimCSE(48, syn)
	sbert := NewSBERT(48, syn)
	checkEncodeGolden(t, "SimCSE", simcse, simcse.(*denseEncoder), sentences)
	checkEncodeGolden(t, "SBERT", sbert, sbert.(*denseEncoder), sentences)

	nb := NewNetBERT(48, syn)
	checkEncodeGolden(t, "NetBERT", nb, &nb.denseEncoder, sentences)
	const renamed = "the ipv4 address of the neighbor"
	before := nb.Encode(renamed)
	stats := nb.FineTune(fineTuneExamples(), 10, 1, 42)
	if stats.AlignmentMap["neighbor"] != "peer" {
		t.Fatalf("fine-tuning learned %v, want neighbor -> peer", stats.AlignmentMap)
	}
	checkEncodeGolden(t, "NetBERT fine-tuned", nb, &nb.denseEncoder, sentences)
	after := nb.Encode(renamed)
	if !sameBits(after, nb.Encode("the ipv4 address of the peer")) {
		t.Fatalf("fine-tuned %q differs from its canonical wording", renamed)
	}
	if sameBits(before, after) {
		t.Fatalf("fine-tuning did not change the encoding of %q", renamed)
	}
}
