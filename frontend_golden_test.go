package nassim_test

// Golden tests for the parallel/interned front end: on every built-in
// vendor manual, the parse pool and the memoized empirical validator must
// produce identical artifacts at every worker count — same corpus JSON
// bytes, same VDM, same empirical report.

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"nassim"
	"nassim/internal/empirical"
)

// corporaJSON renders a parse result's corpora to canonical JSON bytes.
func corporaJSON(t *testing.T, pr *nassim.ParseResult) []byte {
	t.Helper()
	data, err := json.Marshal(pr.Corpora)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFrontendParseGolden parses each vendor manual at 1, 2 and 8
// workers, requiring byte-identical corpora, identical hierarchy edges,
// and identical completeness reports. Every count runs the production
// parser; internal/parser's TestParseWorkersByteIdentical holds these same
// manuals equal to the reference-DOM oracle.
func TestFrontendParseGolden(t *testing.T) {
	ctx := context.Background()
	for _, vendor := range nassim.Vendors() {
		vendor := vendor
		t.Run(vendor, func(t *testing.T) {
			m, err := nassim.SyntheticModel(vendor, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			pages := nassim.SyntheticManual(m)
			seq, err := nassim.ParseManualWorkers(ctx, vendor, pages, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq.Corpora) == 0 {
				t.Fatal("no corpora parsed")
			}
			for _, workers := range []int{2, 8} {
				par, err := nassim.ParseManualWorkers(ctx, vendor, pages, workers)
				if err != nil {
					t.Fatal(err)
				}
				if string(corporaJSON(t, seq)) != string(corporaJSON(t, par)) {
					t.Errorf("workers=%d: parse produced different corpus bytes", workers)
				}
				if !reflect.DeepEqual(seq.Hierarchy, par.Hierarchy) {
					t.Errorf("workers=%d: hierarchy edges differ: %d vs %d", workers, len(seq.Hierarchy), len(par.Hierarchy))
				}
				if !reflect.DeepEqual(seq.Completeness, par.Completeness) {
					t.Errorf("workers=%d: completeness reports differ", workers)
				}
			}
		})
	}
}

// TestFrontendVDMAndEmpiricalGolden drives each vendor through parse →
// VDM → empirical validation on both paths and requires identical VDM
// bytes and identical reports (for vendors with a config corpus).
func TestFrontendVDMAndEmpiricalGolden(t *testing.T) {
	ctx := context.Background()
	for _, vendor := range nassim.Vendors() {
		vendor := vendor
		t.Run(vendor, func(t *testing.T) {
			m, err := nassim.SyntheticModel(vendor, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			pages := nassim.SyntheticManual(m)
			build := func(workers int) (*nassim.VDM, []byte) {
				pr, err := nassim.ParseManualWorkers(ctx, vendor, pages, workers)
				if err != nil {
					t.Fatal(err)
				}
				v, _ := nassim.BuildVDM(ctx, vendor, pr.Corpora, pr.Hierarchy)
				nassim.ApplyCorrections(pr.Corpora, nassim.ExpertCorrections(m, v.InvalidCLIs))
				v, _ = nassim.BuildVDM(ctx, vendor, pr.Corpora, pr.Hierarchy)
				raw, err := nassim.MarshalVDM(v)
				if err != nil {
					t.Fatal(err)
				}
				return v, raw
			}
			vSeq, rawSeq := build(1)
			vPar, rawPar := build(8)
			if string(rawSeq) != string(rawPar) {
				t.Fatal("VDMs differ between sequential and parallel parse paths")
			}

			files, ok := nassim.SyntheticConfigs(m, 0.05)
			if !ok {
				return // vendor without a synthetic config corpus
			}
			want := empirical.ValidateConfigsNaive(ctx, vSeq, files)
			for _, workers := range []int{1, 8} {
				got := nassim.ValidateConfigsWorkers(ctx, vPar, files, workers)
				if want.Files != got.Files || want.TotalLines != got.TotalLines ||
					want.UniqueLines != got.UniqueLines || want.MatchedLines != got.MatchedLines {
					t.Fatalf("workers=%d: report counts differ: want %v, got %v", workers, want, got)
				}
				if !reflect.DeepEqual(want.UsedCorpora, got.UsedCorpora) {
					t.Fatalf("workers=%d: used corpora differ", workers)
				}
				if !reflect.DeepEqual(want.Failures, got.Failures) {
					t.Fatalf("workers=%d: failures differ", workers)
				}
			}
		})
	}
}
