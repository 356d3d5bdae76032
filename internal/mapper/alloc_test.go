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

// TestRecommendAllocs pins a warm Recommend (sentence cache and token memo
// filled by a first call). The composite model allocates at most 13
// objects: the joined query, its token slice and the lower-cased copies of
// its 5 tokens with upper case, the shortlist, the candidate list, the
// encodings slice, the scored candidates, the top-k heap and the result.
// The pure-DL model scores the whole tree on the same loop and
// allocates at most 5: the candidate list, the encodings slice, the
// scored candidates, the top-k heap and the result.
func TestRecommendAllocs(t *testing.T) {
	pc := ExtractContext(miniVDM(), vdm.Parameter{Corpus: 0, Name: "as-number"})
	for _, tc := range []struct {
		name  string
		useIR bool
		limit float64
	}{
		{"IR+SBERT", true, 13},
		{"SBERT", false, 5},
	} {
		m, err := New(testTree(), nlp.NewSBERT(96, devmodel.GeneralSynonyms()), tc.useIR)
		if err != nil {
			t.Fatal(err)
		}
		m.Recommend(pc, 10)
		if n := testing.AllocsPerRun(100, func() { m.Recommend(pc, 10) }); n > tc.limit {
			t.Errorf("warm %s Recommend allocates %v objects per call, want at most %v", tc.name, n, tc.limit)
		}
	}
}
