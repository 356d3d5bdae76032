// Package faultnet is a deterministic, seedable fault-injection layer
// for the device transport. It wraps the protocol at the net.Listener /
// net.Conn boundary — the same seam the paper's live validator crosses to
// reach real devices (§5.3) — and injects the failure modes flaky legacy
// boxes actually exhibit: latency spikes, bandwidth-shaped slow writes,
// mid-session connection resets, garbled or truncated response lines, and
// device "flapping" (accept-then-drop windows).
//
// Every decision is drawn from a per-connection PCG stream seeded by
// (Profile.Seed, connection index), and each write consumes a fixed
// number of draws, so a fixed seed yields an identical fault schedule on
// every run regardless of timing — the property the chaos suite relies on
// to assert byte-identical degraded reports across runs.
package faultnet

import (
	"math/rand/v2"
	"net"
	"sync"
	"syscall"
	"time"
)

// Profile declares which faults to inject and how often. The zero value
// injects nothing (a transparent wrapper).
type Profile struct {
	// Seed drives every probabilistic decision; runs with the same seed
	// (and the same exchange sequence) see the same fault schedule.
	Seed uint64

	// ResetRate is the per-response probability that the connection is
	// reset before the response reaches the client.
	ResetRate float64

	// LatencyRate is the per-response probability of a latency spike of
	// Latency before the response is written.
	LatencyRate float64
	Latency     time.Duration

	// BytesPerSecond throttles response writes to simulate a slow console
	// line; 0 leaves writes unshaped.
	BytesPerSecond int

	// GarbleRate is the per-response probability that the first response
	// line is overwritten with garbage, breaking the wire protocol.
	GarbleRate float64

	// TruncateRate is the per-response probability that only a prefix of
	// the response is written before the connection is closed.
	TruncateRate float64

	// FlapAfter/FlapCount model device flapping: after FlapAfter accepted
	// connections, the next FlapCount connections are accepted and then
	// immediately dropped. FlapCount 0 disables flapping.
	FlapAfter int
	FlapCount int

	// Dead drops every accepted connection immediately: the fully-dead
	// device fixture the circuit breaker must fast-fail on.
	Dead bool
}

// Standard is the standard chaos profile used by tests, `nassim run
// -chaos-profile standard`, and the chaos benchmark: 5% resets, 10%
// latency spikes of the given duration, and one flap window of two
// connections.
func Standard(seed uint64, latency time.Duration) Profile {
	return Profile{
		Seed:        seed,
		ResetRate:   0.05,
		LatencyRate: 0.10,
		Latency:     latency,
		FlapAfter:   3,
		FlapCount:   2,
	}
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	Conns     int64 // connections accepted
	Dropped   int64 // connections dropped at accept (flap windows, Dead)
	Resets    int64 // mid-session connection resets
	Spikes    int64 // latency spikes injected
	Garbled   int64 // responses garbled
	Truncated int64 // responses truncated
}

// Listener wraps a net.Listener with fault injection. Connections
// accepted during a flap window (or on a Dead profile) are closed
// immediately — the dialer sees a successful TCP connect followed by EOF,
// exactly how a flapping device looks from the management network.
type Listener struct {
	net.Listener
	p Profile

	mu    sync.Mutex
	conns int
	stats Stats
}

// Wrap decorates a listener with the profile's fault injection.
func Wrap(l net.Listener, p Profile) *Listener {
	return &Listener{Listener: l, p: p}
}

// Accept implements net.Listener. Dropped connections are returned (in
// closed state) rather than swallowed so the serving accept loop keeps
// running.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	idx := l.conns
	l.conns++
	l.stats.Conns++
	drop := l.p.Dead ||
		(l.p.FlapCount > 0 && idx >= l.p.FlapAfter && idx < l.p.FlapAfter+l.p.FlapCount)
	if drop {
		l.stats.Dropped++
	}
	l.mu.Unlock()
	if drop {
		conn.Close()
		return conn, nil
	}
	if l.p.injectsIO() {
		return &faultConn{
			Conn: conn,
			l:    l,
			rng:  rand.New(rand.NewPCG(l.p.Seed, uint64(idx)+1)),
		}, nil
	}
	return conn, nil
}

// Stats returns a snapshot of the faults delivered so far.
func (l *Listener) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

func (p Profile) injectsIO() bool {
	return p.ResetRate > 0 || p.LatencyRate > 0 || p.BytesPerSecond > 0 ||
		p.GarbleRate > 0 || p.TruncateRate > 0
}

// faultConn injects faults into the server-side response stream. Only
// writes are touched: corrupting client requests would change what the
// device executes (a semantic fault), while corrupting responses is a
// pure transport fault the client can detect and retry.
type faultConn struct {
	net.Conn
	l *Listener

	mu  sync.Mutex
	rng *rand.Rand
}

func (c *faultConn) note(f func(*Stats)) {
	c.l.mu.Lock()
	f(&c.l.stats)
	c.l.mu.Unlock()
}

// Write implements net.Conn. Every call draws the same number of random
// values in the same order, so the fault schedule depends only on the
// seed and the write sequence, never on which faults happened to fire.
func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	spike := c.rng.Float64() < c.l.p.LatencyRate
	reset := c.rng.Float64() < c.l.p.ResetRate
	garble := c.rng.Float64() < c.l.p.GarbleRate
	truncate := c.rng.Float64() < c.l.p.TruncateRate
	c.mu.Unlock()

	if spike {
		c.note(func(s *Stats) { s.Spikes++ })
		time.Sleep(c.l.p.Latency)
	}
	if bps := c.l.p.BytesPerSecond; bps > 0 {
		time.Sleep(time.Duration(float64(len(b)) / float64(bps) * float64(time.Second)))
	}
	if reset {
		c.note(func(s *Stats) { s.Resets++ })
		c.Conn.Close()
		return 0, syscall.ECONNRESET
	}
	if truncate && len(b) > 1 {
		c.note(func(s *Stats) { s.Truncated++ })
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, syscall.ECONNRESET
	}
	if garble {
		c.note(func(s *Stats) { s.Garbled++ })
		g := append([]byte(nil), b...)
		// Overwrite the status line (up to the first newline) so the
		// client sees a protocol violation instead of valid framing.
		for i := 0; i < len(g) && g[i] != '\n'; i++ {
			g[i] = '#'
		}
		return c.Conn.Write(g)
	}
	return c.Conn.Write(b)
}
