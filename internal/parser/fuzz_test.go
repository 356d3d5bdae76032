package parser

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"nassim/internal/devmodel"
	"nassim/internal/manualgen"
)

// FuzzParseManual feeds any vendor parser any manual page. The seeds are
// the first pages of each vendor's rendered manual at a small scale. The
// contract: ParseAndValidate returns without panicking, a malformed page
// at worst yielding an incomplete corpus that the completeness report
// flags, and a second call over the same page, which may reuse the first
// call's warmed DOM arena, gives identical corpora, hierarchy edges and
// report.
func FuzzParseManual(f *testing.F) {
	vendors := Vendors()
	for _, v := range devmodel.AllVendors {
		man := manualgen.Render(devmodel.Generate(devmodel.PaperConfig(v).Scaled(0.01)))
		for _, pg := range man.Pages[:min(3, len(man.Pages))] {
			f.Add(uint8(slices.Index(vendors, string(v))), pg.HTML)
		}
	}
	f.Fuzz(func(t *testing.T, vendor uint8, html string) {
		p, err := New(vendors[int(vendor)%len(vendors)])
		if err != nil {
			t.Fatal(err)
		}
		pages := []Page{{URL: "https://manual.example/fuzz", HTML: html}}
		res, rep := p.ParseAndValidate(context.Background(), pages)
		again, repAgain := p.ParseAndValidate(context.Background(), pages)
		if !reflect.DeepEqual(res.Corpora, again.Corpora) || !reflect.DeepEqual(res.Hierarchy, again.Hierarchy) {
			t.Fatalf("%s: two parses of one page differ:\n%+v\n%+v", p.Vendor(), res.Corpora, again.Corpora)
		}
		if !reflect.DeepEqual(rep, repAgain) {
			t.Fatalf("%s: two reports over one page differ:\n%+v\n%+v", p.Vendor(), rep, repAgain)
		}
	})
}
