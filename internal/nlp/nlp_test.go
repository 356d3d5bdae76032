package nlp

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"nassim/internal/devmodel"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"peer <ipv4-address> group", []string{"peer", "ipv4", "address", "group"}},
		{"Specifies the AS-number.", []string{"specifies", "the", "as", "number"}},
		{"", nil},
		{"  --- ", nil},
		{"BGP view", []string{"bgp", "view"}},
	}
	for _, tc := range cases {
		if got := Tokenize(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// tokenizeRunes is the rune-loop tokenizer Tokenize's byte scan
// replaced: ASCII letters and digits extend a token, upper case folded,
// and every other rune (including utf8.RuneError for invalid bytes)
// ends it.
func tokenizeRunes(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			cur.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			cur.WriteRune(r + ('a' - 'A'))
		default:
			flush()
		}
	}
	flush()
	return out
}

// FuzzTokenize holds the byte scan to the rune loop on any input,
// invalid UTF-8 included.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"peer <ipv4-address> as-number <as-number>",
		"Specifies the AS-number of the BGP Peer.",
		"vlan4094 MTU9000 x1y2Z3",
		"café résumé é",
		"中文 mixed中text",
		"bad\xffbyte \xffLEAD trail\xff",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), tokenizeRunes(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, want %q", s, got, want)
		}
	})
}

func TestTFIDFRanking(t *testing.T) {
	docs := [][]string{
		Tokenize("The IPv4 address of the BGP peer"),
		Tokenize("The VLAN identifier of the VLAN"),
		Tokenize("The scheduling weight of the output queue"),
	}
	ix := NewTFIDF(docs)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	got := ix.Rank(Tokenize("Specifies the IPv4 address of a peer"), 3)
	if got[0].Doc != 0 {
		t.Errorf("top doc = %d, want 0 (scores %v)", got[0].Doc, got)
	}
	if got[0].Score <= got[1].Score {
		t.Errorf("no separation: %v", got)
	}
	// k limiting.
	if n := len(ix.Rank(docs[0], 2)); n != 2 {
		t.Errorf("limited rank len = %d", n)
	}
}

func TestTFIDFStopwordsIgnored(t *testing.T) {
	ix := NewTFIDF([][]string{Tokenize("the of and"), Tokenize("vlan identifier")})
	v := ix.Vector(Tokenize("the of and"))
	if len(v) != 0 {
		t.Errorf("stopword-only vector = %v", v)
	}
}

func TestCosineSparseProperties(t *testing.T) {
	clamp := func(m map[string]float64) SparseVec {
		out := SparseVec{}
		for k, v := range m {
			out[k] = math.Tanh(v / 10) // bound magnitudes so norms cannot overflow
		}
		return out
	}
	f := func(a, b map[string]float64) bool {
		va, vb := clamp(a), clamp(b)
		cab, cba := CosineSparse(va, vb), CosineSparse(vb, va)
		if math.Abs(cab-cba) > 1e-9 {
			return false
		}
		if va.Norm() > 0 {
			if self := CosineSparse(va, va); math.Abs(self-1) > 1e-9 {
				return false
			}
		}
		return cab >= -1-1e-9 && cab <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDenseCosineBounds(t *testing.T) {
	enc := NewSBERT(64, devmodel.GeneralSynonyms())
	a := enc.Encode("the vlan identifier")
	b := enc.Encode("unrelated mpls label stack text")
	if c := Cosine(a, a); math.Abs(c-1) > 1e-9 {
		t.Errorf("self cosine = %f", c)
	}
	if c := Cosine(a, b); c < -1 || c > 1 {
		t.Errorf("cosine out of range: %f", c)
	}
	if len(a) != 64 || enc.Dim() != 64 {
		t.Errorf("dim = %d/%d", len(a), enc.Dim())
	}
}

func TestEncodersDeterministic(t *testing.T) {
	for _, enc := range []Encoder{
		NewSimCSE(32, devmodel.GeneralSynonyms()),
		NewSBERT(32, devmodel.GeneralSynonyms()),
		NewNetBERT(32, devmodel.GeneralSynonyms()),
	} {
		a := enc.Encode("peer ipv4 address")
		b := enc.Encode("peer ipv4 address")
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s not deterministic", enc.Name())
		}
	}
}

// SBERT's pretraining covers the full general-synonym table; SimCSE covers
// only part of it. A sentence pair differing by a synonym SimCSE does not
// know must be closer under SBERT.
func TestSBERTBridgesMoreSynonymsThanSimCSE(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	sbert := NewSBERT(64, syn)
	simcse := NewSimCSE(64, syn)
	// ("display", "show") is an odd-index pair: unknown to SimCSE.
	a, b := "display the current vlan", "show the current vlan"
	sb := Cosine(sbert.Encode(a), sbert.Encode(b))
	sc := Cosine(simcse.Encode(a), simcse.Encode(b))
	if sb <= sc {
		t.Errorf("SBERT similarity %f <= SimCSE %f for general-synonym pair", sb, sc)
	}
	if math.Abs(sb-1) > 1e-9 {
		t.Errorf("SBERT should canonicalize the pair to identity, got %f", sb)
	}
}

func TestNetBERTEqualsSBERTUntrained(t *testing.T) {
	syn := devmodel.GeneralSynonyms()
	nb := NewNetBERT(48, syn)
	sb := NewSBERT(48, syn)
	for _, s := range []string{"the vlan identifier", "neighbor ipv4 address", "display current configuration"} {
		if !reflect.DeepEqual(nb.Encode(s), sb.Encode(s)) {
			t.Errorf("untrained NetBERT differs from SBERT on %q", s)
		}
	}
}

// fineTuneExamples builds a synthetic annotation set where the vendor
// renames peer->neighbor and vlan->service.
func fineTuneExamples() []TrainExample {
	var out []TrainExample
	base := []struct{ v, u string }{
		{"the ipv4 address of the neighbor", "the ipv4 address of the bgp peer"},
		{"the as number of the neighbor", "the as number of the bgp peer"},
		{"the group name of the neighbor", "the group name of the bgp peer"},
		{"the hold time of the neighbor", "the hold time of the bgp peer"},
		{"the service identifier", "the vlan identifier"},
		{"the service name text", "the vlan name text"},
		{"the mtu of the service", "the mtu of the vlan"},
		{"the queue length of the port", "the queue length of the interface"},
		{"the speed of the port", "the speed of the interface"},
		{"the duplex mode of the port", "the duplex mode of the interface"},
		// A one-off substitution: too little support for one epoch, but an
		// overfit run (relaxed threshold) picks it up.
		{"the liveness timer seconds", "the session timer seconds"},
	}
	for _, b := range base {
		out = append(out, TrainExample{Query: Tokenize(b.v), Target: Tokenize(b.u)})
	}
	return out
}

func TestNetBERTFineTuneLearnsDomainAlignments(t *testing.T) {
	nb := NewNetBERT(64, devmodel.GeneralSynonyms())
	stats := nb.FineTune(fineTuneExamples(), 10, 1, 42)
	if stats.Positives != 11 {
		t.Errorf("positives = %d", stats.Positives)
	}
	if stats.Negatives == 0 {
		t.Error("no negatives sampled")
	}
	want := map[string]string{"neighbor": "peer", "service": "vlan", "port": "interface"}
	for src, dst := range want {
		if got := stats.AlignmentMap[src]; got != dst {
			t.Errorf("alignment %s -> %q, want %q (all: %v)", src, got, dst, stats.AlignmentMap)
		}
	}
	// After fine-tuning, the renamed wording embeds like the canonical.
	a := nb.Encode("the ipv4 address of the neighbor")
	b := nb.Encode("the ipv4 address of the peer")
	if c := Cosine(a, b); math.Abs(c-1) > 1e-9 {
		t.Errorf("post-finetune cosine = %f, want 1", c)
	}
}

func TestNetBERTExtraEpochsOverfit(t *testing.T) {
	one := NewNetBERT(32, devmodel.GeneralSynonyms())
	s1 := one.FineTune(fineTuneExamples(), 10, 1, 42)
	three := NewNetBERT(32, devmodel.GeneralSynonyms())
	s3 := three.FineTune(fineTuneExamples(), 10, 3, 42)
	if s3.Alignments <= s1.Alignments {
		t.Errorf("epochs=3 learned %d alignments, epochs=1 learned %d: overfitting emulation broken",
			s3.Alignments, s1.Alignments)
	}
}

func TestFineTuneDefaults(t *testing.T) {
	nb := NewNetBERT(16, nil)
	stats := nb.FineTune(fineTuneExamples(), 0, 0, 1)
	if stats.Negatives == 0 || stats.Positives != 11 {
		t.Errorf("defaults not applied: %+v", stats)
	}
	if stats.String() == "" {
		t.Error("empty stats string")
	}
}

func TestFineTuneSingleExample(t *testing.T) {
	nb := NewNetBERT(16, nil)
	stats := nb.FineTune(fineTuneExamples()[:1], 10, 1, 1)
	if stats.Negatives != 0 {
		t.Errorf("negatives sampled from a single example: %+v", stats)
	}
}

func TestTokenVectorUnit(t *testing.T) {
	v := tokenVector("peer", 128)
	n := 0.0
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("token vector norm = %f", math.Sqrt(n))
	}
	if reflect.DeepEqual(v, tokenVector("peek", 128)) {
		t.Error("distinct tokens produced identical vectors")
	}
}

func TestEncodeEmptyText(t *testing.T) {
	enc := NewSBERT(16, nil)
	v := enc.Encode("")
	for _, x := range v {
		if x != 0 {
			t.Fatalf("empty text embedding non-zero: %v", v)
		}
	}
	if c := Cosine(v, enc.Encode("vlan")); c != 0 {
		t.Errorf("cosine with zero vector = %f", c)
	}
}
