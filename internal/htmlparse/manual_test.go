package htmlparse_test

import (
	"slices"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/htmlparse"
	"nassim/internal/manualgen"
)

// TestArenaMatchesReferenceOnManuals holds the production builder, one
// Arena reused across a vendor's page stream, equal to the reference
// builder on every page of the four synthetic manuals at scale 0.05 (the
// manuals the parser's worker-count test parses). The comparison covers
// everything the vendor parsers read from a DOM, so their output over the
// arena tree is their output over the reference tree.
func TestArenaMatchesReferenceOnManuals(t *testing.T) {
	for _, v := range devmodel.AllVendors {
		t.Run(string(v), func(t *testing.T) {
			man := manualgen.Render(devmodel.Generate(devmodel.PaperConfig(v).Scaled(0.05)))
			a := htmlparse.NewArena(htmlparse.NewIntern())
			for _, pg := range man.Pages {
				if !sameTree(htmlparse.ParseReference(pg.HTML), a.ParseString(pg.HTML)) {
					t.Fatalf("%s: arena tree differs from the reference tree", pg.URL)
				}
			}
		})
	}
}

// sameTree compares node kind, tag, data, attributes, the cached class
// list and children in order, and requires every child's Parent to be
// the node it hangs under.
func sameTree(a, b *htmlparse.Node) bool {
	if a.Type != b.Type || a.Tag != b.Tag || a.Data != b.Data ||
		!slices.Equal(a.Attrs, b.Attrs) || !slices.Equal(a.Classes(), b.Classes()) ||
		len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if a.Children[i].Parent != a || b.Children[i].Parent != b ||
			!sameTree(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
