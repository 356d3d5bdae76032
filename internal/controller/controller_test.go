package controller_test

import (
	"context"
	"sort"
	"strings"
	"testing"

	"nassim"
	"nassim/internal/controller"
	"nassim/internal/device"
	"nassim/internal/mapper"
)

// assimilated builds (over TCP) one registered controller device for a
// vendor, returning the attribute IDs its binding covers.
func addVendor(t *testing.T, c *controller.Controller, name, vendor string) map[string]bool {
	t.Helper()
	asr, err := nassim.AssimilateVendor(context.Background(), vendor, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	anns := nassim.GroundTruthAnnotations(asr.Model, 200, 21)
	binding := controller.BindingFromAnnotations(anns)

	dev, err := device.New(asr.Model)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := device.Serve(dev, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := device.DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	if err := c.AddDevice(name, vendor, asr.VDM, binding, cl, dev.ShowConfigCommand()); err != nil {
		t.Fatal(err)
	}
	covered := map[string]bool{}
	for id := range binding {
		covered[id] = true
	}
	return covered
}

func TestApplyIntentAcrossVendors(t *testing.T) {
	c := controller.New(5)
	hw := addVendor(t, c, "dc1-core-1", "Huawei")
	nk := addVendor(t, c, "dc1-core-2", "Nokia")

	// Pick attributes both vendors support (sorted: deterministic run).
	var shared []string
	for id := range hw {
		if nk[id] {
			shared = append(shared, id)
		}
	}
	sort.Strings(shared)
	if len(shared) < 10 {
		t.Fatalf("only %d shared attributes", len(shared))
	}
	shared = shared[:10]

	pushed := 0
	for _, attrID := range shared {
		in := controller.Intent{AttrID: attrID, Value: valueFor(attrID)}
		results, err := c.ApplyAll(in)
		if err != nil {
			t.Fatalf("intent %v: %v (results %v)", in, err, results)
		}
		if len(results) != 2 {
			t.Fatalf("intent %v landed on %d devices, want 2", in, len(results))
		}
		for _, r := range results {
			if !r.Verified {
				t.Fatalf("intent %v not verified on %s", in, r.Device)
			}
			if !strings.Contains(r.CLI, in.Value) {
				t.Errorf("intent value %q absent from pushed CLI %q", in.Value, r.CLI)
			}
		}
		// Vendor heterogeneity: the two devices got DIFFERENT command
		// wordings for the same intent at least once across the batch.
		if results[0].CLI != results[1].CLI {
			pushed++
		}
	}
	if pushed == 0 {
		t.Error("all intents produced identical CLI on both vendors: no heterogeneity exercised")
	}
}

// valueFor picks an intent value compatible with the attribute's domain.
func valueFor(attrID string) string {
	switch {
	case strings.Contains(attrID, "address") && !strings.Contains(attrID, "name"):
		return "10.9.9.9"
	case strings.Contains(attrID, "prefix") && !strings.Contains(attrID, "name") && !strings.Contains(attrID, "limit"):
		return "10.9.0.0/24"
	case strings.Contains(attrID, "name") || strings.Contains(attrID, "text") ||
		strings.Contains(attrID, "string") || strings.Contains(attrID, "mode") ||
		strings.Contains(attrID, "title") || strings.Contains(attrID, "interface"):
		return "intent9"
	case strings.Contains(attrID, "mask") && !strings.Contains(attrID, "length"):
		return "0.0.0.255"
	default:
		return "7"
	}
}

func TestApplyErrors(t *testing.T) {
	c := controller.New(1)
	if _, err := c.Apply("ghost", controller.Intent{AttrID: "x", Value: "1"}); err == nil {
		t.Error("unknown device accepted")
	}
	hw := addVendor(t, c, "dev1", "Huawei")
	if _, err := c.Apply("dev1", controller.Intent{AttrID: "not.an.attr", Value: "1"}); err == nil {
		t.Error("unbound attribute accepted")
	}
	// A type-incompatible value must be rejected before anything is sent.
	var intAttr string
	for id := range hw {
		if strings.HasSuffix(id, "as-number") || strings.HasSuffix(id, "-limit") || strings.HasSuffix(id, "-time") {
			intAttr = id
			break
		}
	}
	if intAttr != "" {
		if _, err := c.Apply("dev1", controller.Intent{AttrID: intAttr, Value: "not-a-number"}); err == nil {
			t.Errorf("type-incompatible value accepted for %s", intAttr)
		}
	}
	if err := c.AddDevice("dev1", "Huawei", nil, nil, nil, ""); err == nil {
		t.Error("duplicate/nil device accepted")
	}
	if c.Supports("ghost", "x") {
		t.Error("Supports(ghost) = true")
	}
}

func TestBindingFromAnnotationsLaterWins(t *testing.T) {
	anns := []mapper.Annotation{
		{Param: nassim.Parameter{Corpus: 1, Name: "a"}, AttrID: "x"},
		{Param: nassim.Parameter{Corpus: 2, Name: "b"}, AttrID: "x"},
	}
	b := controller.BindingFromAnnotations(anns)
	if got := b["x"]; got.Corpus != 2 || got.Name != "b" {
		t.Errorf("binding = %+v", got)
	}
}
