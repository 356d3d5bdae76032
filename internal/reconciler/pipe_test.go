package reconciler

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"nassim/internal/pipeline"
)

// runPlans runs two reconcile cycles over the given transport and
// returns the encoded plans (shared store keeps the desired-state
// derivation warm across transports, like the acceptance test).
func runPlans(t *testing.T, transport Transport, store *pipeline.MemStore) [][]byte {
	t.Helper()
	sc, err := ScenarioByName("churn+skew+flap")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(context.Background(), Config{
		Spec: FleetSpec{
			Devices: 48, Scale: 0.02, Seed: 431, Scenario: sc,
			Transport: transport,
		},
		MaxParallel: 8,
		Store:       store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var plans [][]byte
	for c := 0; c < 2; c++ {
		cr, err := r.RunCycle(context.Background())
		if err != nil {
			t.Fatalf("%s cycle %d: %v", transport, c+1, err)
		}
		if got := cr.Health[HealthUnreachable]; got != 0 {
			t.Fatalf("%s cycle %d: %d unreachable devices, want 0", transport, c+1, got)
		}
		b, err := cr.Plan.Encode()
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, b)
	}
	return plans
}

// TestPipeTransportPlansMatchTCP pins the in-process pipe transport to
// the TCP transport: the same seeded chaos fleet produces byte-identical
// reconcile plans over both, so the FD-free transport changes fleet
// economics, never fleet semantics.
func TestPipeTransportPlansMatchTCP(t *testing.T) {
	store := pipeline.NewMemStore()
	tcp := runPlans(t, TransportTCP, store)
	pipe := runPlans(t, TransportPipe, store)
	for c := range tcp {
		if !bytes.Equal(tcp[c], pipe[c]) {
			t.Errorf("cycle %d: plan differs between tcp and pipe transports", c+1)
		}
	}
	if !bytes.Contains(tcp[0], []byte(`"class"`)) {
		t.Error("chaos scenario produced no drift actions; byte comparison proves nothing")
	}
}

// TestPipeFleetNoGoroutineLeak runs the leak lifecycle of
// TestFleetServeNoGoroutineLeak over the pipe transport: serve, probe,
// tear down, zero residual goroutines.
func TestPipeFleetNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	sc, err := ScenarioByName("standard")
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(context.Background(), Config{
		Spec: FleetSpec{Seed: 11, Devices: 12, Scale: 0.02, Scenario: sc,
			Transport: TransportPipe},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunCycle(context.Background()); err != nil {
		r.Close()
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	waitNoLeak(t, before)
}
