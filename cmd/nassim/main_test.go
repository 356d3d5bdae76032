package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"nassim"
	"nassim/internal/corpus"
)

// writePages renders a small synthetic manual into a temp directory.
func writePages(t *testing.T, vendor string) (dir string, model *nassim.DeviceModel) {
	t.Helper()
	m, err := nassim.SyntheticModel(vendor, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	for i, p := range nassim.SyntheticManual(m) {
		name := filepath.Join(dir, fmt.Sprintf("cmd-%05d.html", i))
		if err := os.WriteFile(name, []byte(p.HTML), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, m
}

func TestParseValidateMapSubcommands(t *testing.T) {
	pages, _ := writePages(t, "H3C")
	out := filepath.Join(t.TempDir(), "corpus.json")

	if err := cmdParse([]string{"-vendor", "H3C", "-pages", pages, "-out", out}); err != nil {
		t.Fatalf("parse: %v", err)
	}
	art, err := loadArtifact(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Vendor != "H3C" || len(art.Corpora) == 0 {
		t.Fatalf("artifact: vendor=%q corpora=%d", art.Vendor, len(art.Corpora))
	}

	if err := cmdValidate([]string{"-corpus", out}); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if err := cmdMap([]string{"-corpus", out, "-model", "IR", "-limit", "2", "-top", "3"}); err != nil {
		t.Fatalf("map: %v", err)
	}
	if err := cmdMap([]string{"-corpus", out, "-model", "IR", "-param", "0#description-text"}); err != nil {
		t.Fatalf("map -param: %v", err)
	}
}

func TestParseSubcommandErrors(t *testing.T) {
	if err := cmdParse([]string{"-vendor", "H3C"}); err == nil {
		t.Error("missing -pages accepted")
	}
	empty := t.TempDir()
	if err := cmdParse([]string{"-vendor", "H3C", "-pages", empty}); err == nil {
		t.Error("empty pages dir accepted")
	}
	if err := cmdParse([]string{"-vendor", "nope", "-pages", empty}); err == nil {
		t.Error("unknown vendor accepted")
	}
}

func TestMapSubcommandErrors(t *testing.T) {
	pages, _ := writePages(t, "H3C")
	out := filepath.Join(t.TempDir(), "corpus.json")
	if err := cmdParse([]string{"-vendor", "H3C", "-pages", pages, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMap([]string{"-corpus", out, "-model", "bogus"}); err == nil {
		t.Error("bogus model accepted")
	}
	if err := cmdMap([]string{"-corpus", out, "-param", "not-a-ref"}); err == nil {
		t.Error("malformed -param accepted")
	}
	if err := cmdMap([]string{"-corpus", filepath.Join(t.TempDir(), "missing.json")}); err == nil {
		t.Error("missing corpus file accepted")
	}
}

func TestLoadArtifactBareDatasetFallback(t *testing.T) {
	// The released-dataset format is a bare corpus array; loadArtifact must
	// accept it too.
	corpora := []corpus.Corpus{{
		CLIs: []string{"vlan <vlan-id>"}, FuncDef: "Creates a VLAN.",
		ParentViews: []string{"system view"},
		ParaDef:     []corpus.ParaDef{{Paras: "vlan-id", Info: "VLAN ID."}},
		Vendor:      "Huawei",
	}}
	data, err := corpus.Marshal(corpora)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dataset.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	art, err := loadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Vendor != "Huawei" || len(art.Corpora) != 1 {
		t.Fatalf("artifact: %+v", art)
	}
}

func TestLoadArtifactRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifact(path); err == nil {
		t.Error("garbage accepted")
	}
	// Valid JSON of the wrong shape.
	obj, _ := json.Marshal(map[string]int{"x": 1})
	if err := os.WriteFile(path, obj, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifact(path); err == nil {
		t.Error("wrong-shape JSON accepted")
	}
}

func TestDemoSubcommand(t *testing.T) {
	if err := cmdDemo([]string{"-vendor", "Cisco", "-scale", "0.02"}); err != nil {
		t.Fatalf("demo: %v", err)
	}
}

func TestValidateSaveAndMapFromVDM(t *testing.T) {
	pages, _ := writePages(t, "H3C")
	dir := t.TempDir()
	out := filepath.Join(dir, "corpus.json")
	vdmPath := filepath.Join(dir, "vdm.json")
	if err := cmdParse([]string{"-vendor", "H3C", "-pages", pages, "-out", out}); err != nil {
		t.Fatal(err)
	}
	if err := cmdValidate([]string{"-corpus", out, "-save", vdmPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(vdmPath); err != nil {
		t.Fatalf("saved VDM missing: %v", err)
	}
	if err := cmdMap([]string{"-vdm", vdmPath, "-model", "IR", "-limit", "2"}); err != nil {
		t.Fatalf("map from saved VDM: %v", err)
	}
	if err := cmdMap([]string{"-vdm", filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing VDM file accepted")
	}
}

func TestIntentSubcommand(t *testing.T) {
	if err := cmdIntent([]string{"-vendor", "Huawei", "-scale", "0.05", "-value", "9"}); err != nil {
		t.Fatalf("intent: %v", err)
	}
}

// TestRunProfileStagesWritesCaptures drives `nassim run -profile-stages`
// end to end: the flight recorder, attached through the stage hook,
// leaves a non-empty CPU and heap profile per executed stage.
func TestRunProfileStagesWritesCaptures(t *testing.T) {
	dir := t.TempDir()
	if err := cmdRun([]string{"-vendors", "Nokia", "-scale", "0.02", "-profile-stages", dir}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, kind := range []string{"cpu", "heap"} {
		caps, err := filepath.Glob(filepath.Join(dir, kind+"-Nokia-*.pprof"))
		if err != nil {
			t.Fatal(err)
		}
		if len(caps) == 0 {
			t.Errorf("no %s captures in %s", kind, dir)
		}
		for _, p := range caps {
			if st, err := os.Stat(p); err != nil || st.Size() == 0 {
				t.Errorf("capture %s is empty or missing: %v", p, err)
			}
		}
	}
}
