package pipeline

import (
	"context"
	"testing"

	"nassim/internal/devmodel"
)

// TestJobResultKeys checks that every touched stage publishes its
// artifact key, on cold runs and warm (cache-satisfied) runs alike.
func TestJobResultKeys(t *testing.T) {
	store := NewMemStore()
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := testJob(t, devmodel.H3C, 0.02)
	cold, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []Stage{StageParse, StageSyntaxValidate, StageDeriveHierarchy} {
		if cold[0].Keys[st] == "" {
			t.Errorf("cold run: no key recorded for %s", st)
		}
	}
	warm, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	for st, key := range cold[0].Keys {
		if warm[0].Keys[st] != key {
			t.Errorf("%s key changed between runs: %q vs %q", st, key, warm[0].Keys[st])
		}
	}
}

// TestEngineInvalidate checks the stage-invalidation hook: evicting one
// stage's artifact re-runs exactly that stage while its upstream stages
// still cache-hit, and the re-run reproduces the evicted artifact.
func TestEngineInvalidate(t *testing.T) {
	store := NewMemStore()
	eng, err := New(Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	job, _ := testJob(t, devmodel.H3C, 0.02)
	cold, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}

	key := cold[0].Keys[StageDeriveHierarchy]
	if key == "" {
		t.Fatal("no derive key recorded")
	}
	if n := eng.Invalidate(key); n != 1 {
		t.Fatalf("Invalidate removed %d artifacts, want 1", n)
	}
	// A second eviction of the same key is a miss.
	if n := eng.Invalidate(key); n != 0 {
		t.Fatalf("second Invalidate removed %d artifacts, want 0", n)
	}

	rerun, err := eng.Run(context.Background(), []Job{job})
	if err != nil {
		t.Fatal(err)
	}
	if got := rerun[0].Ran; len(got) != 1 || got[0] != StageDeriveHierarchy {
		t.Fatalf("after invalidation ran %v, want exactly [%s]", got, StageDeriveHierarchy)
	}
	wantSkips := 2 // Parse and SyntaxValidate stay cached
	if got := len(rerun[0].Skipped); got != wantSkips {
		t.Fatalf("after invalidation skipped %d stages (%v), want %d", got, rerun[0].Skipped, wantSkips)
	}
	if a, b := marshalVDM(t, cold[0].VDM), marshalVDM(t, rerun[0].VDM); string(a) != string(b) {
		t.Error("re-derived VDM differs from the evicted artifact")
	}
}

// TestMemStoreDelete pins the eviction behind Engine.Invalidate.
func TestMemStoreDelete(t *testing.T) {
	s := NewMemStore()
	s.Put("k", 42)
	if !s.Delete("k") {
		t.Fatal("Delete of a present key returned false")
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("key survived Delete")
	}
	if s.Delete("k") {
		t.Fatal("Delete of an absent key returned true")
	}
	if s.Len() != 0 {
		t.Fatalf("store has %d entries, want 0", s.Len())
	}
}
