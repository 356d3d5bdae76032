package pipeline

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"nassim/internal/devmodel"
)

// stagePins records, for TestStageVersionTripwire's job, a sha256 of each
// mirrored stage's artifact file and of syntax_cgm's flagged list, next to
// the stage version the digest was taken under.
var stagePins = map[Stage]struct{ version, digest string }{
	StageParse:             {"parse/v1", "22e929ed44806f784d7615428fab810b2af49e2cf2cdea2b7f93144f6622a3df"},
	StageSyntaxValidate:    {"syntax_cgm/v1", "9066c5bf41e7ea265e7fe4c3f92d54f79ec876c163ae701ad70fee4c20fe7139"},
	StageDeriveHierarchy:   {"derive/v2", "9f114c33e52b5a7687f37e6bb2920e6283ff591b79187d1986bbac0fbf48abf2"},
	StageEmpiricalValidate: {"empirical/v1", "c1578d809a70e3f9179822f9e7c66bbced7b40daa23328615a47d597d6cbb634"},
	StageMapToUDM:          {"map/v1", "16c410220e86091fe2c1aa8d592fadb80b7b5e4f2434b6cf2f4de796adada5db"},
}

// stageDigests runs one job cold into a fresh mirror and digests what each
// keyed stage produced: the mirrored stages' files, and syntax_cgm's
// flagged list, which stays in memory.
func stageDigests(t *testing.T, job Job) map[Stage]string {
	t.Helper()
	dir := t.TempDir()
	eng, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(data []byte) string {
		s := sha256.Sum256(data)
		return hex.EncodeToString(s[:])
	}
	out := map[Stage]string{}
	for _, st := range []Stage{StageParse, StageDeriveHierarchy, StageEmpiricalValidate, StageMapToUDM} {
		files := artifactFiles(t, dir, st)
		if len(files) != 1 {
			t.Fatalf("%s: mirror holds %d files, want 1", st, len(files))
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		out[st] = sum(data)
	}
	flagged, err := json.Marshal(res[0].Invalid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Invalid) == 0 {
		t.Fatal("syntax_cgm flagged nothing, so its digest would pin nothing")
	}
	out[StageSyntaxValidate] = sum(flagged)
	return out
}

// TestStageVersionTripwire holds each keyed stage's output on one small
// fixed job to its pin. A digest that moves under an unchanged version
// means the stage now computes something else while its key, and so every
// warm mirror, still names the old result: bump the stage's version in
// stageVersions, then re-pin. A stage whose output moved only because an
// upstream stage was bumped needs its digest re-pinned, not a bump: key
// chaining already re-keys it. A version that moves without its pin fails
// too, so that every bump records the digest it was made for.
func TestStageVersionTripwire(t *testing.T) {
	got := stageDigests(t, fullJob(t, devmodel.H3C, 0.02))
	for _, st := range Stages() {
		version, keyed := stageVersions[st]
		pin, pinned := stagePins[st]
		switch {
		case !keyed && !pinned:
			// live_test is never keyed.
		case !keyed:
			t.Errorf("%s: pinned under %s, but the stage has no version", st, pin.version)
		case !pinned:
			t.Errorf("%s: version %s has no pin; pin digest %s", st, version, got[st])
		case version != pin.version:
			t.Errorf("%s: version %s moved from its pin %s; pin digest %s under %s", st, version, pin.version, got[st], version)
		case got[st] != pin.digest:
			t.Errorf("%s: output digest %s… pinned %s… under unchanged version %s; bump the version in stageVersions and pin digest %s",
				st, got[st][:8], pin.digest[:8], version, got[st])
		}
	}
}

// TestStageVersionBumpRerunsDownstream: bumping hierarchy's version re-keys
// it and, through key chaining, empirical and map_to_udm. A fresh engine
// over a mirror written before the bump loads parse from disk and re-runs
// the rest; it never reads the older files, which stay on disk. The test
// swaps a stageVersions entry, so it must not run in parallel.
func TestStageVersionBumpRerunsDownstream(t *testing.T) {
	job := fullJob(t, devmodel.H3C, 0.02)
	dir := t.TempDir()
	old, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := old.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	before, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}

	prev := stageVersions[StageDeriveHierarchy]
	stageVersions[StageDeriveHierarchy] = prev + "-bump"
	t.Cleanup(func() { stageVersions[StageDeriveHierarchy] = prev })

	eng, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	jr := res[0]
	if want := []Stage{StageSyntaxValidate, StageDeriveHierarchy, StageEmpiricalValidate, StageMapToUDM}; !slices.Equal(jr.Ran, want) {
		t.Errorf("after the bump the run executed %v, want %v", jr.Ran, want)
	}
	if _, ok := jr.DiskLoads[StageParse]; !ok || len(jr.DiskLoads) != 1 {
		t.Errorf("disk loads %v, want parse only", jr.DiskLoads)
	}
	for _, st := range []Stage{StageParse, StageSyntaxValidate} {
		if jr.Keys[st] != cold[0].Keys[st] {
			t.Errorf("%s: key moved with hierarchy's version", st)
		}
	}
	for _, st := range []Stage{StageDeriveHierarchy, StageEmpiricalValidate, StageMapToUDM} {
		if jr.Keys[st] == cold[0].Keys[st] {
			t.Errorf("%s: key did not move with hierarchy's version", st)
		}
	}
	if !slices.Equal(marshalVDM(t, cold[0].VDM), marshalVDM(t, jr.VDM)) {
		t.Error("re-derived VDM differs from the cold VDM")
	}
	sameStageResults(t, cold[0], jr)
	after, err := filepath.Glob(filepath.Join(dir, "*.art"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range before {
		if !slices.Contains(after, f) {
			t.Errorf("%s: file of the old version removed", filepath.Base(f))
		}
	}
	if len(after) != len(before)+3 {
		t.Errorf("mirror holds %d files after the bump, want %d old plus 3 new", len(after), len(before))
	}
}
