package reconciler

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"strings"
	"time"

	"nassim/internal/device"
	"nassim/internal/devmodel"
	"nassim/internal/faultnet"
)

// FleetSpec declares a simulated fleet. The zero value of optional fields
// takes defaults; Seed is the single source of all randomness (chaos
// schedules, desired-state parameter values, planted drift).
type FleetSpec struct {
	// Vendors cycles across the fleet round-robin; empty uses the four
	// built-in vendors in Table 4 order.
	Vendors []string
	// Devices is the fleet size (default 8).
	Devices int
	// Scale is the synthetic corpus scale for the vendor models
	// (default 0.05 — fleet runs care about breadth, not corpus depth).
	Scale float64
	// Seed drives everything; equal seeds yield byte-identical plans.
	Seed uint64
	// Scenario is the chaos profile; the zero value is a clean transport
	// with no drift.
	Scenario Scenario
	// LinesPerDevice caps each device's desired config length (default 12).
	LinesPerDevice int
	// DesiredFirmware is the fleet's target firmware version
	// (default "9.1.0"); SkewedFirmware is what firmware-skewed devices
	// report instead (default "8.4.2").
	DesiredFirmware string
	SkewedFirmware  string
	// Transport selects how devices are served: loopback TCP (the
	// default — one listener socket plus a connection pair per device) or
	// in-process net.Pipe connections, which cost no file descriptors and
	// let fleets scale past the per-process FD limit (~10k devices on
	// default ulimits). Probes, health, and plans are byte-identical
	// across transports; the fault-injection and resilience layers run
	// unchanged over both.
	Transport Transport
}

// Transport names a fleet serving transport.
type Transport string

// The fleet transports.
const (
	// TransportTCP serves each device on its own loopback TCP listener.
	TransportTCP Transport = "tcp"
	// TransportPipe serves each device over in-process net.Pipe
	// connections — no file descriptors, same wire protocol, same chaos
	// injection.
	TransportPipe Transport = "pipe"
)

func (s FleetSpec) withDefaults() FleetSpec {
	if len(s.Vendors) == 0 {
		for _, v := range devmodel.AllVendors {
			s.Vendors = append(s.Vendors, string(v))
		}
	}
	if s.Devices <= 0 {
		s.Devices = 8
	}
	if s.Scale <= 0 {
		s.Scale = 0.05
	}
	if s.LinesPerDevice <= 0 {
		s.LinesPerDevice = 12
	}
	if s.DesiredFirmware == "" {
		s.DesiredFirmware = "9.1.0"
	}
	if s.SkewedFirmware == "" {
		s.SkewedFirmware = "8.4.2"
	}
	if s.Transport == "" {
		s.Transport = TransportTCP
	}
	return s
}

// fleetDevice is one simulated device under management: its simulator,
// chaos-wrapped server, persistent resilient client, and the desired
// state the reconciler holds it to.
type fleetDevice struct {
	id      string
	index   int
	vendor  string
	dev     *device.Device
	srv     *device.Server
	client  *device.ResilientClient
	showCmd string
	desired []desiredLine
	drift   DriftSpec
}

// Fleet is a served simulated fleet. Devices stay up until Close; the
// per-device clients are persistent, so breaker state (and with it the
// bounded re-probe cadence for dead devices) carries across cycles.
type Fleet struct {
	spec    FleetSpec
	devices []*fleetDevice
}

// Fleet probe tuning. A probe is one exchange, so backoff stays in the low
// milliseconds. The failure threshold must exceed any failure streak a
// live device can compose — a mid-exchange reset landing in a two-conn
// flap window followed by another reset is four in a row, and at fleet
// scale (hundreds of devices x per-write reset draws) longer streaks do
// occur — so only a genuinely dead device reaches eight straight failures.
// MaxAttempts matches the threshold: one more attempt would fast-fail
// through the now-open breaker anyway. The cooldown then bounds a
// settled-dead device to one half-open probe per interval.
const (
	fleetMaxAttempts      = 8
	fleetFailureThreshold = 8
)

func fleetClientOptions(seed uint64, i int, cooldown time.Duration) device.ResilientOptions {
	return device.ResilientOptions{
		Seed: mix(seed, i) ^ 0xc1a05,
		Retry: device.RetryPolicy{
			MaxAttempts: fleetMaxAttempts,
			BaseDelay:   2 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Budget:      -1,
		},
		Breaker: device.BreakerConfig{FailureThreshold: fleetFailureThreshold, OpenFor: cooldown},
	}
}

// newFleet builds, seeds, and serves the fleet. desired maps vendor name
// to its share of the desired state (built by the reconciler's pipeline
// pass before the fleet comes up).
func newFleet(spec FleetSpec, desired map[string]*vendorDesired, cooldown time.Duration) (*Fleet, error) {
	spec = spec.withDefaults()
	f := &Fleet{spec: spec}
	base := map[string]*device.Device{}
	for _, vend := range spec.Vendors {
		vd, ok := desired[vend]
		if !ok {
			return nil, fmt.Errorf("reconciler: no desired state for vendor %q", vend)
		}
		d, err := device.New(vd.model)
		if err != nil {
			return nil, err
		}
		base[vend] = d
	}
	for i := 0; i < spec.Devices; i++ {
		vend := spec.Vendors[i%len(spec.Vendors)]
		vd := desired[vend]
		fd := &fleetDevice{
			id:      fmt.Sprintf("%s-%04d", vend, i),
			index:   i,
			vendor:  vend,
			dev:     base[vend].CloneFresh(),
			desired: vd.desiredFor(i, spec.Seed, spec.DesiredFirmware),
		}
		fd.showCmd = fd.dev.ShowConfigCommand()
		if spec.Scenario.Drift != nil {
			fd.drift = spec.Scenario.Drift(spec.Seed, i, spec.Devices)
		}
		fd.dev.SeedConfig(observedLines(fd.desired, fd.drift, spec, i, vd))
		profile := faultnet.Profile{Seed: mix(spec.Seed, i)}
		if spec.Scenario.Transport != nil {
			profile = spec.Scenario.Transport(spec.Seed, i, spec.Devices)
		}
		opts := fleetClientOptions(spec.Seed, i, cooldown)
		var l net.Listener
		if spec.Transport == TransportPipe {
			pl := newPipeListener(fd.id)
			// The resilient client dials the pipe in-process and completes
			// the greeting over the synthetic connection; everything above
			// the dial (retry, breaker, replay) is transport-agnostic.
			opts.Dial = func(ctx context.Context) (*device.Client, error) {
				conn, err := pl.Dial(ctx)
				if err != nil {
					return nil, err
				}
				return device.NewClientConn(ctx, conn)
			}
			l = pl
		} else {
			tl, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				f.Close()
				return nil, fmt.Errorf("reconciler: fleet listen: %w", err)
			}
			l = tl
		}
		fd.srv = device.ServeListener(fd.dev, faultnet.Wrap(l, profile))
		fd.client = device.DialResilient(fd.srv.Addr(), opts)
		f.devices = append(f.devices, fd)
	}
	return f, nil
}

// observedLines plants the device's drift into its seeded configuration:
// desired lines are dropped or parameter-skewed per the spec's draws (one
// draw pair per line, so the schedule is a pure function of the seed), and
// unmanaged legacy lines are appended. The firmware banner reflects the
// device's actual (possibly skewed) version.
func observedLines(desired []desiredLine, drift DriftSpec, spec FleetSpec, i int, vd *vendorDesired) []string {
	r := rand.New(rand.NewPCG(mix(spec.Seed, i), 0x0b5e2ed))
	var out []string
	for _, dl := range desired {
		if dl.corpus < 0 {
			fw := spec.DesiredFirmware
			if drift.FirmwareSkew {
				fw = spec.SkewedFirmware
			}
			out = append(out, firmwareBanner(fw))
			continue
		}
		miss := r.Float64() < drift.MissingFrac
		skew := r.Float64() < drift.SkewFrac
		switch {
		case miss:
			// dropped: the device never got (or lost) this line
		case skew:
			if inst := vd.instantiate(dl.corpus, r); inst != "" && inst != dl.line {
				out = append(out, inst)
			} else {
				out = append(out, dl.line)
			}
		default:
			out = append(out, dl.line)
		}
	}
	for k := 0; k < drift.ExtraLines; k++ {
		out = append(out, fmt.Sprintf("! legacy unmanaged-%d site %04d", k, i))
	}
	return out
}

// Retries sums the fleet clients' lifetime retry counts (the satellite
// fixture for asserting dead fleets settle instead of spamming retries).
func (f *Fleet) Retries() uint64 {
	var n uint64
	for _, fd := range f.devices {
		n += fd.client.Retries()
	}
	return n
}

// Close tears the fleet down: clients first (no new probes), then servers
// (which close their listeners and wait for in-flight handlers), leaving
// zero residual goroutines.
func (f *Fleet) Close() error {
	var firstErr error
	for _, fd := range f.devices {
		if fd == nil {
			continue
		}
		if fd.client != nil {
			if err := fd.client.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if fd.srv != nil {
			if err := fd.srv.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// normalizeLine strips indentation for diffing: the device renders stanza
// depth as leading spaces, the desired state is flat.
func normalizeLine(l string) string { return strings.TrimSpace(l) }
