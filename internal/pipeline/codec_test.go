package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nassim/internal/cgm"
	"nassim/internal/devmodel"
	"nassim/internal/hierarchy"
	"nassim/internal/vdm"
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

// copyDir copies the files of a flat directory into another.
func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// jobCodecs builds the per-job empirical and map codecs the engine used
// for a finished job.
func jobCodecs(job Job, jr *JobResult) (empiricalCodec, mapCodec) {
	params := make([]vdm.Parameter, len(jr.Mapping))
	for i, mp := range jr.Mapping {
		params[i] = mp.Param
	}
	return empiricalCodec{corpora: len(jr.VDM.Corpora)},
		mapCodec{params: params, attrs: job.Map.Mapper.Attrs(), topK: job.Map.TopK}
}

// TestCorruptDiskArtifactIsCacheMiss is the resilience satellite: a
// truncated, bit-flipped or forged artifact on disk must be treated as a
// cache miss — the stage re-runs, the run succeeds, the output matches
// the cold run, and the re-run restores the pristine artifact. The
// container's content hash catches the mid-file flip and the length
// framing the truncation. A forged artifact carries a valid hash, so the
// codec's index checks must catch it.
func TestCorruptDiskArtifactIsCacheMiss(t *testing.T) {
	job := fullJob(t, devmodel.H3C, 0.02)
	pristineDir := t.TempDir()
	first, err := New(Config{CacheDir: pristineDir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := first.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	empC, mapC := jobCodecs(job, cold[0])

	// check corrupts the one artifact of a stage in a copy of the cold
	// mirror and runs a fresh engine over it.
	check := func(t *testing.T, stage Stage, version string, corrupt func([]byte) []byte) {
		dir := t.TempDir()
		copyDir(t, pristineDir, dir)
		files := artifactFiles(t, dir, version)
		if len(files) != 1 {
			t.Fatalf("expected 1 %s artifact, found %d", version, len(files))
		}
		pristine, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], corrupt(append([]byte(nil), pristine...)), 0o644); err != nil {
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
		if !slices.Contains(warm[0].Ran, stage) {
			t.Errorf("%s stage did not re-run over corrupt artifact: ran=%v", stage, warm[0].Ran)
		}
		if !bytes.Equal(marshalVDM(t, cold[0].VDM), marshalVDM(t, warm[0].VDM)) {
			t.Error("re-run VDM differs from cold VDM")
		}
		sameStageResults(t, cold[0], warm[0])
		// The stage re-ran and re-mirrored: the artifact must be whole again.
		repaired, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(repaired, pristine) {
			t.Error("re-run did not restore the disk artifact")
		}
	}

	mirrored := []struct {
		stage   Stage
		version string
	}{
		{StageParse, parseCodec.Version()},
		{StageDeriveHierarchy, deriveCodec.Version()},
		{StageEmpiricalValidate, empC.Version()},
		{StageMapToUDM, mapC.Version()},
	}
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
			for _, m := range mirrored {
				t.Run(string(m.stage), func(t *testing.T) { check(t, m.stage, m.version, tc.corrupt) })
			}
		})
	}

	// Forged artifacts: decoded, given one index outside the job's lists,
	// and re-encoded, so the content hash is valid.
	t.Run("forged_attr_index", func(t *testing.T) {
		check(t, StageMapToUDM, mapC.Version(), func(b []byte) []byte {
			ms, err := mapC.Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			ms[len(ms)-1].Recommendations[0].AttrIndex = len(mapC.attrs)
			out, err := mapC.Encode(ms)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
	t.Run("forged_corpus_index", func(t *testing.T) {
		check(t, StageEmpiricalValidate, empC.Version(), func(b []byte) []byte {
			rep, err := empC.Decode(b)
			if err != nil {
				t.Fatal(err)
			}
			rep.UsedCorpora[empC.corpora] = true
			out, err := empC.Encode(rep)
			if err != nil {
				t.Fatal(err)
			}
			return out
		})
	})
}

// TestColdMirrorsByteIdentical: a stored artifact is a function of its
// key. One job that exercises all four disk codecs, run cold into two
// fresh mirrors, writes the same file names with the same bytes.
func TestColdMirrorsByteIdentical(t *testing.T) {
	job := fullJob(t, devmodel.H3C, 0.02)
	mirror := func() (string, map[string][sha256.Size]byte) {
		dir := t.TempDir()
		eng, err := New(Config{CacheDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Run(context.Background(), []Job{job}); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		sums := map[string][sha256.Size]byte{}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			sums[e.Name()] = sha256.Sum256(data)
		}
		return dir, sums
	}
	dir, first := mirror()
	_, second := mirror()
	for _, version := range []string{parseCodec.Version(), deriveCodec.Version(),
		empiricalCodec{}.Version(), mapCodec{}.Version()} {
		if n := len(artifactFiles(t, dir, version)); n != 1 {
			t.Errorf("mirror holds %d %s files, want 1", n, version)
		}
	}
	for name, sum := range first {
		other, ok := second[name]
		switch {
		case !ok:
			t.Errorf("%s: written by the first cold run only", name)
		case other != sum:
			t.Errorf("%s: bytes differ between two cold runs", name)
		}
	}
	for name := range second {
		if _, ok := first[name]; !ok {
			t.Errorf("%s: written by the second cold run only", name)
		}
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
			jobs[i] = fullJob(t, v, 0.02)
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

	// Fresh memory store, same disk mirror: every parse, derive, empirical
	// and map artifact must come back through the binary path.
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
		if want := []Stage{StageSyntaxValidate}; !slices.Equal(warm[i].Ran, want) {
			t.Errorf("%s: warm run executed %v, want %v", v, warm[i].Ran, want)
		}
		if !bytes.Equal(marshalVDM(t, cold[i].VDM), marshalVDM(t, warm[i].VDM)) {
			t.Errorf("%s: warm VDM differs from cold VDM", v)
		}
		sameStageResults(t, cold[i], warm[i])
		for _, st := range []Stage{StageParse, StageDeriveHierarchy, StageEmpiricalValidate, StageMapToUDM} {
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
