package nassim

import (
	"net"
	"time"

	"nassim/internal/device"
	"nassim/internal/faultnet"
)

// This file is the public robustness surface: fault injection for the
// device transport (internal/faultnet) and the resilient client that
// survives it (retry with backoff, circuit breaking, session replay).
// Together they exercise the §5.3 live-validation path the way real
// legacy devices exercise it — with resets, latency spikes, garbage, and
// flapping — while keeping every run deterministic for a fixed seed.

// Resilience types re-exported from the internal packages.
type (
	// ChaosProfile declares which transport faults to inject and how
	// often; the zero value injects nothing.
	ChaosProfile = faultnet.Profile
	// ChaosStats counts the faults an injector actually delivered.
	ChaosStats = faultnet.Stats
	// FaultListener is a fault-injecting wrapper around a net.Listener.
	FaultListener = faultnet.Listener
	// RetryPolicy tunes the resilient client's retry loop.
	RetryPolicy = device.RetryPolicy
	// ResilientOptions tunes DialDeviceResilient.
	ResilientOptions = device.ResilientOptions
	// ResilientDeviceClient is a device client hardened for flaky
	// endpoints: lazy dial, retries with exponential backoff, circuit
	// breaking, and view-stack replay after reconnects.
	ResilientDeviceClient = device.ResilientClient
)

// StandardChaosProfile is the standard chaos profile used by the chaos
// suite, `nassim run -chaos-profile standard`, and the chaos benchmark:
// 5% connection resets, 10% latency spikes of 200ms, and one flap window
// of two connections.
func StandardChaosProfile(seed uint64) ChaosProfile {
	return faultnet.Standard(seed, 200*time.Millisecond)
}

// DeadDeviceProfile drops every connection immediately — the fixture the
// circuit breaker must open on.
func DeadDeviceProfile() ChaosProfile { return ChaosProfile{Dead: true} }

// ServeDeviceChaos serves a simulated device through a fault-injecting
// listener ("127.0.0.1:0" picks an ephemeral port). The returned
// FaultListener reports delivered-fault statistics.
func ServeDeviceChaos(d *Device, addr string, p ChaosProfile) (*DeviceServer, *FaultListener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	fl := faultnet.Wrap(l, p)
	return device.ServeListener(d, fl), fl, nil
}

// DialDeviceResilient returns a resilient client for a served device. The
// connection is established lazily on the first exchange, so a dead
// device surfaces as exchange failures and an open breaker rather than a
// constructor error.
func DialDeviceResilient(addr string, opts ResilientOptions) *ResilientDeviceClient {
	return device.DialResilient(addr, opts)
}

// chaosSeed derives the per-vendor fault and jitter seed for job i of a
// chaos run. Each vendor gets its own injector and client streams, so
// determinism holds for any worker count.
func chaosSeed(base uint64, i int) uint64 {
	return base + uint64(i)*0x9e3779b97f4a7c15
}
