package nassim_test

import (
	"context"
	"strings"
	"testing"

	"nassim"
)

// TestControllerPublicAPI drives the root-level controller surface with an
// in-process device session.
func TestControllerPublicAPI(t *testing.T) {
	asr, err := nassim.AssimilateVendor(context.Background(), "H3C", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	binding := nassim.BindingFromAnnotations(
		nassim.GroundTruthAnnotations(asr.Model, 100, 3))
	dev, err := nassim.NewDevice(asr.Model)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := nassim.NewController(3)
	if err := nassim.RegisterDevice(ctrl, "edge-1", "H3C", asr.VDM, binding,
		nassim.SessionExecutor(dev.NewSession()), dev.ShowConfigCommand()); err != nil {
		t.Fatal(err)
	}
	var attrID string
	for id := range binding {
		if strings.HasSuffix(id, "-time") {
			attrID = id
			break
		}
	}
	if attrID == "" {
		t.Skip("no time-typed bound attribute at this scale")
	}
	res, err := ctrl.Apply("edge-1", nassim.Intent{AttrID: attrID, Value: "30"})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || !strings.Contains(res.CLI, "30") {
		t.Fatalf("push result: %+v", res)
	}
	if !dev.HasConfigLine(res.CLI) {
		t.Error("pushed CLI not in device config")
	}
}
