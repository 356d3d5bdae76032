//go:build !race

// Allocation pins. The race detector makes sync.Pool drop a quarter of
// what is put back, so these counts only hold without -race.

package nlp

import (
	"strings"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/udm"
)

// TestRankAllocs pins a top-50 Rank over the UDM corpus to one
// allocation, its result slice: the query's sorted terms, accumulators,
// visited flags and touched list come from the scratch pool, and the
// query is never turned into maps.
func TestRankAllocs(t *testing.T) {
	tree := udm.Build(devmodel.Concepts())
	docs := make([][]string, tree.Len())
	for i := range docs {
		docs[i] = Tokenize(strings.Join(tree.Context(i), " "))
	}
	idx := NewTFIDF(docs)
	query := Tokenize("as number Specifies the autonomous system number of the BGP peer. " +
		"peer <ipv4-address> as-number <as-number> Configures a BGP peer. BGP view ; system view")
	idx.Rank(query, 50)
	if n := testing.AllocsPerRun(100, func() { idx.Rank(query, 50) }); n > 1 {
		t.Errorf("Rank(k=50) allocates %v objects per call, want at most 1", n)
	}
}
