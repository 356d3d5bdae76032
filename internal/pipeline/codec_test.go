package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nassim/internal/cgm"
	"nassim/internal/devmodel"
	"nassim/internal/hierarchy"
)

// parseJSONCodec and deriveJSONCodec encode the JSON reference layouts the
// nassim-art binary codecs replaced. The round-trip suite and the fuzzer
// compare decoded artifacts by this canonical rendering; the engine never
// reads or writes it.
type parseJSONCodec struct{}

func (parseJSONCodec) Encode(a *parseArtifact) ([]byte, error) { return json.Marshal(a) }

type deriveJSONCodec struct{}

// persistedDerive is the derive artifact's JSON layout: the VDM through
// its own Marshal, the report alongside.
type persistedDerive struct {
	VDM    json.RawMessage
	Report *hierarchy.Report
}

func (deriveJSONCodec) Encode(a *deriveArtifact) ([]byte, error) {
	raw, err := a.VDM.Marshal()
	if err != nil {
		return nil, err
	}
	return json.Marshal(&persistedDerive{VDM: raw, Report: a.Report})
}

// coldArtifacts runs one vendor cold through the engine and pulls the
// typed parse and derive artifacts back out of the memory store, so the
// round-trip suite exercises real pipeline output rather than synthetic
// fixtures. Corrections are disabled to keep the derive key reproducible
// from the test.
func coldArtifacts(t testing.TB, v devmodel.Vendor) (*parseArtifact, *deriveArtifact) {
	t.Helper()
	store := NewMemStore()
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := testJob(t, v, 0.02)
	job.Correct = nil
	if _, err := eng.Run(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}
	parseKey := Key(StageParse, hashPages(job.Vendor, job.Pages))
	synKey := Key(StageSyntaxValidate, parseKey)
	deriveKey := Key(StageDeriveHierarchy, synKey, HashStrings())
	pv, ok := store.Get(parseKey)
	if !ok {
		t.Fatal("parse artifact not in store")
	}
	dv, ok := store.Get(deriveKey)
	if !ok {
		t.Fatal("derive artifact not in store")
	}
	return pv.(*parseArtifact), dv.(*deriveArtifact)
}

// TestParseCodecRoundTripEquality proves the binary parse codec is a
// faithful re-encoding of the JSON reference: binary encode -> decode ->
// reference encode must be byte-identical to reference-encoding the
// original artifact, for every vendor's real parse output.
func TestParseCodecRoundTripEquality(t *testing.T) {
	for _, v := range devmodel.AllVendors {
		t.Run(string(v), func(t *testing.T) {
			pa, _ := coldArtifacts(t, v)
			ref, err := parseJSONCodec{}.Encode(pa)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := parseBinaryCodec{}.Encode(pa)
			if err != nil {
				t.Fatal(err)
			}
			back, err := parseBinaryCodec{}.Decode(bin)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parseJSONCodec{}.Encode(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Errorf("binary round trip diverges from JSON reference (ref %d bytes, got %d)", len(ref), len(got))
			}
		})
	}
}

// TestDeriveCodecRoundTripEquality does the same for the derive artifact,
// and additionally proves the persisted compiled-CGM index survives the
// trip structurally (the JSON reference drops the index, so canonical
// bytes alone cannot see it).
func TestDeriveCodecRoundTripEquality(t *testing.T) {
	for _, v := range devmodel.AllVendors {
		t.Run(string(v), func(t *testing.T) {
			_, da := coldArtifacts(t, v)
			ref, err := deriveJSONCodec{}.Encode(da)
			if err != nil {
				t.Fatal(err)
			}
			bin, err := deriveBinaryCodec{}.Encode(da)
			if err != nil {
				t.Fatal(err)
			}
			back, err := deriveBinaryCodec{}.Decode(bin)
			if err != nil {
				t.Fatal(err)
			}
			got, err := deriveJSONCodec{}.Encode(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got) {
				t.Errorf("binary round trip diverges from JSON reference (ref %d bytes, got %d)", len(ref), len(got))
			}

			// The compiled FSMs must come back structurally identical, in
			// the same insertion order.
			if da.VDM.Index == nil {
				t.Fatal("derive artifact has no CGM index")
			}
			if back.VDM.Index == nil {
				t.Fatal("decoded artifact lost the CGM index")
			}
			want, have := da.VDM.Index.IDs(), back.VDM.Index.IDs()
			if len(want) != len(have) {
				t.Fatalf("index size: want %d graphs, got %d", len(want), len(have))
			}
			for i, id := range want {
				if have[i] != id {
					t.Fatalf("index order diverges at %d: want %q, got %q", i, id, have[i])
				}
				if !cgm.EqualGraphs(da.VDM.Index.Graph(id), back.VDM.Index.Graph(id)) {
					t.Errorf("graph %q not structurally equal after round trip", id)
				}
			}
		})
	}
}

// artifactFiles lists the cache files carrying the given codec version.
func artifactFiles(t *testing.T, dir, version string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), "."+version) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// TestCorruptDiskArtifactIsCacheMiss is the resilience satellite: a
// truncated or bit-flipped artifact on disk must be treated as a cache
// miss — the stage re-runs, the run succeeds, and the output matches the
// cold run. The container's content hash is what catches the mid-file
// flip; the length framing catches the truncation.
func TestCorruptDiskArtifactIsCacheMiss(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"bitflip_midfile", func(b []byte) []byte {
			b[len(b)/2] ^= 0x40
			return b
		}},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"wrong_magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			job, _ := testJob(t, devmodel.H3C, 0.02)

			first, err := New(Config{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := first.Run(context.Background(), []Job{job})
			if err != nil {
				t.Fatal(err)
			}

			files := artifactFiles(t, dir, parseCodec.Version())
			if len(files) != 1 {
				t.Fatalf("expected 1 parse artifact, found %d", len(files))
			}
			pristine, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.corrupt(append([]byte(nil), pristine...)), 0o644); err != nil {
				t.Fatal(err)
			}

			second, err := New(Config{CacheDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := second.Run(context.Background(), []Job{job})
			if err != nil {
				t.Fatalf("corrupt artifact must be a miss, not an error: %v", err)
			}
			ran := map[Stage]bool{}
			for _, st := range warm[0].Ran {
				ran[st] = true
			}
			if !ran[StageParse] {
				t.Errorf("parse stage did not re-run over corrupt artifact: ran=%v", warm[0].Ran)
			}
			if !bytes.Equal(marshalVDM(t, cold[0].VDM), marshalVDM(t, warm[0].VDM)) {
				t.Error("re-run VDM differs from cold VDM")
			}
			// The stage re-ran and re-mirrored: the artifact must be whole again.
			repaired, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(repaired, pristine) {
				t.Error("re-run did not restore the disk artifact")
			}
		})
	}
}

// TestWarmRunDecodesZeroJSON: a warm four-vendor run over a populated
// disk cache performs zero JSON unmarshaling of cached artifacts — every
// disk hit goes through the nassim-art binary codecs, and the result
// records which codec loaded each stage.
func TestWarmRunDecodesZeroJSON(t *testing.T) {
	dir := t.TempDir()
	mkJobs := func() []Job {
		jobs := make([]Job, len(devmodel.AllVendors))
		for i, v := range devmodel.AllVendors {
			jobs[i], _ = testJob(t, v, 0.02)
		}
		return jobs
	}

	first, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := first.Run(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}

	// Fresh memory store, same disk mirror: every parse and derive
	// artifact must come back through the binary path.
	second, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := second.Run(context.Background(), mkJobs())
	if err != nil {
		t.Fatal(err)
	}

	for i, v := range devmodel.AllVendors {
		// Syntax validation caches in memory only; with a fresh MemStore it
		// re-runs. The disk-mirrored stages must not.
		for _, st := range warm[i].Ran {
			if st == StageParse || st == StageDeriveHierarchy {
				t.Errorf("%s: warm run executed disk-mirrored stage %s", v, st)
			}
		}
		if !bytes.Equal(marshalVDM(t, cold[i].VDM), marshalVDM(t, warm[i].VDM)) {
			t.Errorf("%s: warm VDM differs from cold VDM", v)
		}
		for _, st := range []Stage{StageParse, StageDeriveHierarchy} {
			load, ok := warm[i].DiskLoads[st]
			if !ok {
				t.Errorf("%s/%s: no disk load recorded", v, st)
				continue
			}
			if !strings.HasSuffix(load.Codec, ".art") {
				t.Errorf("%s/%s: loaded via codec %q, want a binary .art codec", v, st, load.Codec)
			}
			if load.Bytes <= 0 {
				t.Errorf("%s/%s: recorded %d bytes", v, st, load.Bytes)
			}
		}
	}
}
