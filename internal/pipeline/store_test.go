package pipeline

import (
	"path/filepath"
	"testing"

	"nassim/internal/configgen"
)

func TestKeyContentHashing(t *testing.T) {
	if Key(StageParse, "a", "b") != Key(StageParse, "a", "b") {
		t.Error("Key not deterministic")
	}
	if Key(StageParse, "a", "b") == Key(StageSyntaxValidate, "a", "b") {
		t.Error("stage not folded into the key")
	}
	// Length framing: concatenation across part boundaries must not collide.
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Error("parts not length-framed")
	}
	if HashStrings() == HashStrings("") {
		t.Error("zero parts collides with one empty part")
	}
}

// TestHashFilesFramesFiles checks that a config line naming a file cannot
// pass for a file boundary: one file whose last line is "b.cfg" and two
// files, the second named "b.cfg" and empty, are different inputs.
func TestHashFilesFramesFiles(t *testing.T) {
	one := []configgen.File{{Name: "a.cfg", Lines: []string{"sysname r1", "b.cfg"}}}
	two := []configgen.File{{Name: "a.cfg", Lines: []string{"sysname r1"}}, {Name: "b.cfg"}}
	if hashFiles(one) == hashFiles(two) {
		t.Error("one file and two files share a config hash")
	}
}

func TestMemStore(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Get("k"); ok {
		t.Error("empty store claims a hit")
	}
	s.Put("k", 42)
	v, ok := s.Get("k")
	if !ok || v.(int) != 42 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	key := HashStrings("artifact")
	const ver = "parse.v1.art"
	if _, ok := d.GetBytes(StageParse, key, ver); ok {
		t.Error("empty disk store claims a hit")
	}
	if err := d.PutBytes(StageParse, key, []byte(`{"x":1}`), ver); err != nil {
		t.Fatal(err)
	}
	got, ok := d.GetBytes(StageParse, key, ver)
	if !ok || string(got) != `{"x":1}` {
		t.Errorf("GetBytes = %q, %v", got, ok)
	}
	// A second store over the same directory sees the artifact (the
	// warm-start-across-processes contract).
	d2, err := NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.GetBytes(StageParse, key, ver); !ok {
		t.Error("artifact not visible to a fresh store over the same dir")
	}
	if _, ok := d2.GetBytes(StageDeriveHierarchy, key, ver); ok {
		t.Error("artifact leaked across stages")
	}
	// The codec version is part of the filename: a format bump must never
	// read an old layout's bytes.
	if _, ok := d2.GetBytes(StageParse, key, "parse.v2.art"); ok {
		t.Error("artifact visible under a different codec version")
	}
}
