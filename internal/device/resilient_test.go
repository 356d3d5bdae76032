package device

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"nassim/internal/devmodel"
	"nassim/internal/faultnet"
)

// startFaultServer serves a small device through a fault-injected
// listener.
func startFaultServer(t *testing.T, p faultnet.Profile) (*Server, *Device, *devmodel.Model, *faultnet.Listener) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(devmodel.H3C).Scaled(0.02))
	d, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := faultnet.Wrap(inner, p)
	srv := ServeListener(d, fl)
	t.Cleanup(func() { srv.Close() })
	return srv, d, m, fl
}

// fastOpts keeps retry waits negligible in tests.
func fastOpts(seed uint64) ResilientOptions {
	return ResilientOptions{
		Retry: RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond,
			MaxDelay: 2 * time.Millisecond, AttemptTimeout: 2 * time.Second, Budget: 1000},
		Breaker: BreakerConfig{FailureThreshold: 100, OpenFor: 50 * time.Millisecond},
		Seed:    seed,
	}
}

// rootCommand picks a root-view command that is NOT a view-entering one,
// so repeated execution stays in the root view.
func rootCommand(m *devmodel.Model) string {
	enters := map[string]bool{}
	for _, v := range m.Views {
		enters[v.Enter] = true
	}
	for _, c := range m.Commands {
		if enters[c.ID] {
			continue
		}
		for _, v := range c.Views {
			if v == m.RootView {
				return m.InstantiateMinimal(c)
			}
		}
	}
	return ""
}

func TestResilientSurvivesResets(t *testing.T) {
	srv, _, m, fl := startFaultServer(t, faultnet.Profile{Seed: 1, ResetRate: 0.2})
	rc := DialResilient(srv.Addr(), fastOpts(1))
	defer rc.Close()
	inst := rootCommand(m)
	if inst == "" {
		t.Fatal("no root-view command in model")
	}
	for i := 0; i < 40; i++ {
		resp, err := rc.Exec(inst)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if !resp.OK {
			t.Fatalf("exec %d rejected: %s", i, resp.Msg)
		}
	}
	if s := fl.Stats(); s.Resets == 0 {
		t.Fatal("20% reset rate over 40 exchanges injected nothing — the test proved nothing")
	}
}

func TestResilientSurvivesGarbledResponses(t *testing.T) {
	srv, _, m, fl := startFaultServer(t, faultnet.Profile{Seed: 5, GarbleRate: 0.2})
	rc := DialResilient(srv.Addr(), fastOpts(2))
	defer rc.Close()
	inst := rootCommand(m)
	for i := 0; i < 30; i++ {
		if resp, err := rc.Exec(inst); err != nil || !resp.OK {
			t.Fatalf("exec %d: %+v %v", i, resp, err)
		}
	}
	if s := fl.Stats(); s.Garbled == 0 {
		t.Fatal("no garbles injected")
	}
}

func TestResilientReplaysViewStackAfterReset(t *testing.T) {
	// Navigate into a sub-view, kill the connection behind the client's
	// back, then execute a command valid only inside that sub-view: the
	// replayed epoch must restore the view stack.
	srv, dev, m, _ := startFaultServer(t, faultnet.Profile{})
	var enter *devmodel.Command
	var sub string
	for _, v := range m.Views {
		if v.Enter == "" || v.Name == m.RootView {
			continue
		}
		if c, ok := dev.byID[v.Enter]; ok && containsView(c.Views, m.RootView) {
			enter, sub = c, v.Name
			break
		}
	}
	if enter == nil {
		t.Skip("model has no root-level enter command")
	}
	var subCmd *devmodel.Command
	for _, c := range m.Commands {
		if containsView(c.Views, sub) && c.ID != enter.ID {
			subCmd = c
			break
		}
	}
	if subCmd == nil {
		t.Skipf("no command documented under view %s", sub)
	}

	rc := DialResilient(srv.Addr(), fastOpts(3))
	defer rc.Close()
	if resp, err := rc.Exec(m.InstantiateMinimal(enter)); err != nil || !resp.OK {
		t.Fatalf("enter: %+v %v", resp, err)
	}
	// Sever the live connection out from under the client.
	rc.mu.Lock()
	rc.cl.conn.Close()
	rc.mu.Unlock()

	inst := m.InstantiateMinimal(subCmd)
	resp, err := rc.Exec(inst)
	if err != nil {
		t.Fatalf("exec after severed conn: %v", err)
	}
	if !resp.OK {
		t.Fatalf("sub-view command rejected after replay (view not restored): %s", resp.Msg)
	}
	if !dev.HasConfigLine(inst) {
		t.Fatal("sub-view command not recorded in running config")
	}
}

func containsView(vs []string, v string) bool {
	for _, x := range vs {
		if x == v {
			return true
		}
	}
	return false
}

func TestResilientDeadDeviceOpensBreaker(t *testing.T) {
	srv, _, _, _ := startFaultServer(t, faultnet.Profile{Dead: true})
	rc := DialResilient(srv.Addr(), ResilientOptions{
		Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond,
			MaxDelay: time.Millisecond, AttemptTimeout: time.Second, Budget: 100},
		Breaker: BreakerConfig{FailureThreshold: 3, OpenFor: time.Hour},
	})
	defer rc.Close()
	var lastErr error
	for i := 0; i < 5; i++ {
		if _, lastErr = rc.Exec("return"); lastErr == nil {
			t.Fatalf("exec %d against dead device succeeded", i)
		}
	}
	if rc.BreakerState() != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", rc.BreakerState())
	}
	if !errors.Is(lastErr, ErrBreakerOpen) {
		t.Fatalf("last error = %v, want fast-fail ErrBreakerOpen", lastErr)
	}
	// Fast-fail: an open breaker answers without touching the network.
	start := time.Now()
	if _, err := rc.Exec("return"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("open-breaker exec took %v, want fast-fail", d)
	}
}

func TestResilientRetryBudgetExhausts(t *testing.T) {
	srv, _, _, _ := startFaultServer(t, faultnet.Profile{Dead: true})
	rc := DialResilient(srv.Addr(), ResilientOptions{
		Retry: RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond,
			MaxDelay: time.Millisecond, AttemptTimeout: time.Second, Budget: 3},
		Breaker: BreakerConfig{FailureThreshold: 1 << 30},
	})
	defer rc.Close()
	if _, err := rc.Exec("return"); err == nil {
		t.Fatal("exec against dead device succeeded")
	}
	// Budget of 3 is spent; the next failure must not retry at all.
	start := time.Now()
	if _, err := rc.Exec("return"); err == nil {
		t.Fatal("exec against dead device succeeded")
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("post-budget exec took %v, want a single attempt", d)
	}
}

func TestResilientHonorsCancellation(t *testing.T) {
	srv, _, _, _ := startFaultServer(t, faultnet.Profile{Dead: true})
	rc := DialResilient(srv.Addr(), fastOpts(4))
	defer rc.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rc.ExecContext(ctx, "return"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDialContextTimesOutOnBlackhole(t *testing.T) {
	// A listener that never accepts: the greeting read must time out via
	// the context deadline instead of blocking forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := DialContext(ctx, l.Addr().String()); err == nil {
		t.Fatal("dial against silent listener succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("dial took %v, want prompt context timeout", d)
	}
}

func TestDeprecatedDialStillWorksWithDefaultDeadlines(t *testing.T) {
	srv, d, _, _ := startFaultServer(t, faultnet.Profile{})
	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Exec(d.ShowConfigCommand()); err != nil || !resp.OK {
		t.Fatalf("show: %+v %v", resp, err)
	}
}

func TestProtocolErrorsAreTyped(t *testing.T) {
	srv, _, m, _ := startFaultServer(t, faultnet.Profile{Seed: 9, GarbleRate: 1})
	// Raw client (no retry): every response is garbled, so the exchange
	// must fail with ErrProtocol — the class the retry layer keys on.
	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		// The greeting itself was garbled; that is also a protocol error.
		if !errors.Is(err, ErrProtocol) && !strings.Contains(err.Error(), "greeting") {
			t.Fatalf("dial err = %v", err)
		}
		return
	}
	defer cl.Close()
	if _, err := cl.Exec(rootCommand(m)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}
