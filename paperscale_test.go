//go:build !race

// Paper-scale pins. They run in every plain test run; the race detector
// would stretch them from seconds to most of a minute, so -race runs
// leave them out.

package nassim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"

	"nassim"
	"nassim/internal/eval"
	"nassim/internal/pipeline"
)

// TestTable4PaperScale asserts every discrete Table 4 count the paper
// reports, at scale 1.0.
func TestTable4PaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus in -short mode")
	}
	rows, err := eval.Table4(1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][6]int{ // commands, views, pairs, invalid, examples, ambiguous
		"Huawei": {12874, 607, 36274, 13, 15466, 47},
		"Cisco":  {278, 27, 366, 19, 523, 8},
		"Nokia":  {14046, 3832, 22734, 139, 0, 0},
		"H3C":    {759, 28, 851, 13, 1147, 4},
	}
	for _, r := range rows {
		w := want[r.Vendor]
		got := [6]int{r.Commands, r.Views, r.CLIViewPairs, r.InvalidCLIs, r.ExampleSnippets, r.AmbiguousViews}
		if got != w {
			t.Errorf("%s: %v, want %v", r.Vendor, got, w)
		}
		if r.Vendor == "Huawei" || r.Vendor == "Nokia" {
			if r.MatchingRatio != 1.0 {
				t.Errorf("%s matching ratio = %f", r.Vendor, r.MatchingRatio)
			}
		}
	}
}

// TestMapperPaperScale is the full-scale mapper regression: the Table 5
// result shape must hold at paper scale.
func TestMapperPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus in -short mode")
	}
	tasks, err := eval.MapperEval(eval.MapperOptions{Scale: 1.0, Ks: eval.Table5Ks, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if v := eval.SanityChecks(tasks); len(v) != 0 {
		t.Errorf("shape violations at paper scale:\n%s\n%s",
			strings.Join(v, "\n"), eval.FormatMapper(tasks, true))
	}
}

// TestLiveTestPaperScale runs §5.3's generated-instance testing over
// Huawei's and Nokia's paper-scale corpora: the device must accept every
// instance tested and show it on readback. Each readback is a view of the
// running configuration, so the run is linear in the instances tested;
// when every readback copied the configuration, Huawei's took 18 s.
func TestLiveTestPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus in -short mode")
	}
	res, err := nassim.Assimilate(context.Background(), nassim.Options{
		Vendors: []string{"Huawei", "Nokia"}, Scale: 1.0, Workers: 2,
		Validate: true, LiveTest: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"Huawei": 12721, "Nokia": 13847} // instances tested at seed 1
	for _, r := range res.Results {
		vendor, live := string(r.Model.Vendor), r.Live
		if live.Tested != want[vendor] || live.Accepted != live.Tested || live.Verified != live.Tested {
			t.Errorf("%s: tested %d, accepted %d, verified %d; want %d of each",
				vendor, live.Tested, live.Accepted, live.Verified, want[vendor])
		}
	}
}

// syntaxInvalidDigest is the sha256 over the syntax stage's invalid lists
// of the four vendors at scale 1.0: per vendor its name and entry count,
// then per entry the corpus index, the template and the error text. It
// was recorded while the syntax stage still compiled a CGM for every
// template, so the parse check must flag exactly the same templates with
// exactly the same errors.
const syntaxInvalidDigest = "0cf9ec8b8244a3248179a4709b48a69ba657d08aac7c93b83e3cd798541ccb6b"

// TestSyntaxInvalidPaperScale pins §5.1's flagged templates at paper
// scale: Table 4's invalid counts, the digest of the lists, and the
// hierarchy stage, run without corrections, flagging the same list.
func TestSyntaxInvalidPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale corpus in -short mode")
	}
	var jobs []pipeline.Job
	for _, v := range nassim.Vendors() {
		in, err := nassim.GenerateInputs(v, 1.0, false)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, pipeline.Job{Vendor: v, Pages: in.Pages})
	}
	eng, err := pipeline.New(pipeline.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	jrs, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"Huawei": 13, "Cisco": 19, "Nokia": 139, "H3C": 13}
	h := sha256.New()
	for _, jr := range jrs {
		if len(jr.Invalid) != want[jr.Vendor] {
			t.Errorf("%s: %d invalid templates, want %d", jr.Vendor, len(jr.Invalid), want[jr.Vendor])
		}
		if !reflect.DeepEqual(jr.Invalid, jr.VDM.InvalidCLIs) {
			t.Errorf("%s: the hierarchy stage flagged %d templates, the syntax stage %d, or other ones",
				jr.Vendor, len(jr.VDM.InvalidCLIs), len(jr.Invalid))
		}
		writeString(h, jr.Vendor)
		writeInts(h, len(jr.Invalid))
		for _, ic := range jr.Invalid {
			writeInts(h, ic.Corpus)
			writeString(h, ic.CLI)
			writeString(h, ic.Err.Error())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != syntaxInvalidDigest {
		t.Errorf("syntax-stage invalid lists digest %s, want %s", got, syntaxInvalidDigest)
	}
}
