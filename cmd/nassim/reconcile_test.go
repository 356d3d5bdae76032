package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nassim"
	"nassim/internal/obsreport"
)

// TestChaosProfileFlagRejectsUnknown pins the shared -chaos-profile
// contract: unknown names fail at flag-parse time (the flag.Value's Set
// method), before any fleet or pipeline work starts, and the error names
// the valid set.
func TestChaosProfileFlagRejectsUnknown(t *testing.T) {
	var f chaosProfileFlag
	err := f.Set("not-a-profile")
	if err == nil {
		t.Fatal("unknown profile name accepted")
	}
	if !strings.Contains(err.Error(), "not-a-profile") ||
		!strings.Contains(err.Error(), "churn") {
		t.Fatalf("rejection does not name the offender and the valid set: %v", err)
	}
	if f.name != "" {
		t.Fatalf("failed Set left state %q behind", f.name)
	}
	for _, name := range nassim.ChaosProfileNames() {
		if err := f.Set(name); err != nil {
			t.Errorf("valid profile %q rejected: %v", name, err)
		}
	}
	// Empty resets to the default (no chaos).
	if err := f.Set(""); err != nil || f.name != "" {
		t.Fatalf("empty Set: err=%v name=%q", err, f.name)
	}
}

// TestReconcileSubcommand drives cmdReconcile end to end: two cycles over
// a small drifting fleet, plan and manifest written to disk with the
// expected schemas.
func TestReconcileSubcommand(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	report := filepath.Join(dir, "manifest.json")
	err := cmdReconcile([]string{
		"-devices", "8", "-scale", "0.02", "-cycles", "2", "-seed", "99",
		"-chaos-profile", "churn+skew+flap",
		"-plan-out", plan, "-report", report,
	})
	if err != nil {
		t.Fatalf("reconcile: %v", err)
	}

	data, err := os.ReadFile(plan)
	if err != nil {
		t.Fatal(err)
	}
	var p nassim.ReconcilePlan
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatalf("plan is not valid JSON: %v", err)
	}
	if p.Schema != nassim.ReconcilePlanSchema {
		t.Fatalf("plan schema = %q, want %q", p.Schema, nassim.ReconcilePlanSchema)
	}
	if p.Cycle != 2 || p.Devices != 8 || p.Scenario != "churn+skew+flap" {
		t.Fatalf("plan header: %+v", p)
	}

	m, err := obsreport.Load(report)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reconcile == nil {
		t.Fatal("manifest has no reconcile block")
	}
	if m.Reconcile.Devices != 8 || m.Reconcile.Cycles != 2 {
		t.Fatalf("reconcile block: %+v", m.Reconcile)
	}
	total := 0
	for _, n := range m.Reconcile.Health {
		total += n
	}
	if total != 8 {
		t.Fatalf("health states sum to %d devices, want 8: %v", total, m.Reconcile.Health)
	}
}
