package nassim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"nassim"
	"nassim/internal/obsreport"
)

// TestRunReportAcceptance is the observatory's acceptance check through the
// public API: a four-vendor run with Options.Report emits a
// schema-versioned manifest that is byte-identical across repeated warm
// runs outside its timing block, round-trips through obsreport.Load, and is
// mirrored under the cache directory.
func TestRunReportAcceptance(t *testing.T) {
	cacheDir := t.TempDir()
	opts := nassim.Options{
		Scale: 0.02, Workers: 4, Validate: true,
		Cache: nassim.NewPipelineCache(), CacheDir: cacheDir,
		Report: true,
	}
	ctx := context.Background()

	cold, err := nassim.Assimilate(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Report == nil {
		t.Fatal("Options.Report set but Result.Report is nil")
	}
	if cold.Report.Schema != nassim.RunReportSchema {
		t.Fatalf("schema = %q", cold.Report.Schema)
	}
	if len(cold.Report.Jobs) != len(nassim.Vendors()) {
		t.Fatalf("jobs = %d, want %d", len(cold.Report.Jobs), len(nassim.Vendors()))
	}

	warm1, err := nassim.Assimilate(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := nassim.Assimilate(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm1.Report.RunID != cold.Report.RunID || warm2.Report.RunID != cold.Report.RunID {
		t.Fatalf("run IDs diverge across warm runs: cold=%s warm1=%s warm2=%s",
			cold.Report.RunID[:8], warm1.Report.RunID[:8], warm2.Report.RunID[:8])
	}
	b1, err := warm1.Report.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := warm2.Report.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm manifests differ outside the timing block:\n--- warm1\n%s\n--- warm2\n%s", b1, b2)
	}
	// The canonical form must not smuggle durations or timestamps: the only
	// difference between the full documents is the timing block.
	var probe map[string]json.RawMessage
	full, err := warm1.Report.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(full, &probe); err != nil {
		t.Fatal(err)
	}
	if _, ok := probe["timing"]; !ok {
		t.Error("manifest has no timing block")
	}

	// The manifest is mirrored alongside the cached artifacts.
	mpath := filepath.Join(cacheDir, "manifests", cold.Report.RunID+".json")
	loaded, err := obsreport.Load(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RunID != cold.Report.RunID {
		t.Errorf("loaded run ID %s, want %s", loaded.RunID[:8], cold.Report.RunID[:8])
	}
	if _, err := obsreport.Load(filepath.Join(cacheDir, "manifests", "latest.json")); err != nil {
		t.Errorf("latest.json: %v", err)
	}

	// Cold-run timing carries per-stage wall time and the parse pool's
	// utilization; warm-run timing must be empty of both.
	if len(cold.Report.Timing.Stages) == 0 || len(cold.Report.Timing.Pools) == 0 {
		t.Errorf("cold timing: stages=%d pools=%d", len(cold.Report.Timing.Stages), len(cold.Report.Timing.Pools))
	}
	if len(warm1.Report.Timing.Stages) != 0 {
		t.Errorf("warm timing has %d stage entries", len(warm1.Report.Timing.Stages))
	}
}
