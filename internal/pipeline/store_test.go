package pipeline

import (
	"os"
	"path/filepath"
	"testing"

	"nassim/internal/configgen"
	"nassim/internal/parser"
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

// TestStreamedHashesMatchHashStrings pins that the hashes written straight
// into the hash are HashStrings over the sequences they frame.
func TestStreamedHashesMatchHashStrings(t *testing.T) {
	files := []configgen.File{{Name: "a.cfg", Lines: []string{"sysname r1", "b.cfg"}}, {Name: "b.cfg"}}
	if got, want := hashFiles(files), HashStrings("a.cfg", "2", "sysname r1", "b.cfg", "b.cfg", "0"); got != want {
		t.Errorf("hashFiles = %s, want %s", got, want)
	}
	pages := []parser.Page{{URL: "u1", HTML: "<p>1</p>"}, {URL: "u2", HTML: ""}}
	if got, want := hashPages("H3C", pages), HashStrings("H3C", "u1", "<p>1</p>", "u2", ""); got != want {
		t.Errorf("hashPages = %s, want %s", got, want)
	}
	if got, want := Key(StageParse, "a", "b"), HashStrings(stageVersions[StageParse], "a", "b"); got != want {
		t.Errorf("Key = %s, want %s", got, want)
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
	if _, ok := d.GetBytes(StageParse, key); ok {
		t.Error("empty disk store claims a hit")
	}
	if err := d.PutBytes(StageParse, key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	got, ok := d.GetBytes(StageParse, key)
	if !ok || string(got) != `{"x":1}` {
		t.Errorf("GetBytes = %q, %v", got, ok)
	}
	// A second store over the same directory sees the artifact (the
	// warm-start-across-processes contract).
	d2, err := NewDiskStore(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d2.GetBytes(StageParse, key); !ok {
		t.Error("artifact not visible to a fresh store over the same dir")
	}
	if _, ok := d2.GetBytes(StageDeriveHierarchy, key); ok {
		t.Error("artifact leaked across stages")
	}
	// Files are named <stage>-<key>.art: readers of the mirror find a
	// stage's artifacts by the "<stage>-" prefix.
	if _, err := os.Stat(filepath.Join(dir, "cache", "parse-"+key+".art")); err != nil {
		t.Errorf("artifact file not named <stage>-<key>.art: %v", err)
	}
}
