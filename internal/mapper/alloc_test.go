//go:build !race

// Allocation pins. The race detector makes sync.Pool drop a quarter of
// what is put back, so these counts only hold without -race.

package mapper

import (
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/nlp"
	"nassim/internal/vdm"
)

// TestRecommendAllocs pins a warm composite Recommend (sentence cache and
// token memo filled by a first call) to 13 allocations: the joined query,
// its token slice and the lower-cased copies of its 5 tokens with upper
// case, the shortlist, the candidate list, the encodings slice, the
// scored candidates, the top-k heap and the result.
func TestRecommendAllocs(t *testing.T) {
	m, err := New(testTree(), nlp.NewSBERT(96, devmodel.GeneralSynonyms()), true)
	if err != nil {
		t.Fatal(err)
	}
	pc := ExtractContext(miniVDM(), vdm.Parameter{Corpus: 0, Name: "as-number"})
	m.Recommend(pc, 10)
	if n := testing.AllocsPerRun(100, func() { m.Recommend(pc, 10) }); n > 13 {
		t.Errorf("warm IR+SBERT Recommend allocates %v objects per call, want at most 13", n)
	}
}
