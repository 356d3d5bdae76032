package device

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"nassim/internal/devmodel"
)

func testDevice(t *testing.T, v devmodel.Vendor) (*devmodel.Model, *Device) {
	t.Helper()
	m := devmodel.Generate(devmodel.PaperConfig(v).Scaled(0.02))
	d, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// enterChainFor instantiates the enter commands from the root view down to
// the target view.
func enterChainFor(m *devmodel.Model, view string, r *rand.Rand) []string {
	var chain []*devmodel.View
	for v := m.ViewByName(view); v != nil && v.Enter != ""; v = m.ViewByName(v.Parent) {
		chain = append(chain, v)
	}
	var lines []string
	for i := len(chain) - 1; i >= 0; i-- {
		lines = append(lines, m.InstantiateWith(m.CommandByID(chain[i].Enter), r))
	}
	return lines
}

func TestSessionAcceptsModelCommands(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	r := rand.New(rand.NewPCG(1, 1))
	tried := 0
	for _, c := range m.Commands {
		if tried >= 40 {
			break
		}
		tried++
		s := d.NewSession()
		view := c.Views[0]
		for _, line := range enterChainFor(m, view, r) {
			if resp := s.Exec(line); !resp.OK {
				t.Fatalf("enter line %q rejected: %s", line, resp.Msg)
			}
		}
		inSet := false
		for _, v := range s.ViewSet() {
			if v == view {
				inSet = true
			}
		}
		if !inSet {
			t.Fatalf("navigated to %v, want set containing %q", s.ViewSet(), view)
		}
		inst := m.InstantiateWith(c, r)
		if resp := s.Exec(inst); !resp.OK {
			t.Fatalf("command %s instance %q rejected in view %q: %s", c.ID, inst, view, resp.Msg)
		}
		if !d.HasConfigLine(inst) {
			t.Fatalf("accepted instance %q not in running config", inst)
		}
	}
}

func TestSessionRejectsWrongViewAndGarbage(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	s := d.NewSession()
	if resp := s.Exec("no-such-command at all"); resp.OK {
		t.Error("garbage accepted")
	}
	// A command valid only in a sub-view must be rejected at root.
	for _, c := range m.Commands {
		if len(c.Views) == 1 && c.Views[0] != m.RootView && c.Enters == "" {
			inst := m.InstantiateMinimal(c)
			if resp := s.Exec(inst); resp.OK {
				t.Errorf("command %s accepted in root view, works only in %q", c.ID, c.Views[0])
			}
			break
		}
	}
}

func TestViewNavigation(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	r := rand.New(rand.NewPCG(2, 2))
	// Find a depth-2 view.
	var deep *devmodel.View
	for _, v := range m.Views {
		if v.Parent != "" && m.ViewByName(v.Parent) != nil && m.ViewByName(v.Parent).Parent != "" {
			deep = v
			break
		}
	}
	if deep == nil {
		t.Skip("no depth-2 view at this scale")
	}
	s := d.NewSession()
	for _, line := range enterChainFor(m, deep.Name, r) {
		if resp := s.Exec(line); !resp.OK {
			t.Fatalf("%q rejected: %s", line, resp.Msg)
		}
	}
	if s.Depth() != 2 {
		t.Fatalf("depth = %d, want 2", s.Depth())
	}
	s.Exec("quit")
	if s.Depth() != 1 {
		t.Fatalf("after quit depth = %d", s.Depth())
	}
	s.Exec("return")
	if s.Depth() != 0 || s.View() != m.RootView {
		t.Fatalf("after return: depth=%d view=%q", s.Depth(), s.View())
	}
	// quit at root is a no-op.
	s.Exec("quit")
	if s.View() != m.RootView {
		t.Error("quit at root left the root view")
	}
}

func TestShowConfigReadback(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	r := rand.New(rand.NewPCG(3, 3))
	s := d.NewSession()
	var enter *devmodel.View
	for _, v := range m.Views {
		if v.Parent == m.RootView {
			enter = v
			break
		}
	}
	line := m.InstantiateWith(m.CommandByID(enter.Enter), r)
	if resp := s.Exec(line); !resp.OK {
		t.Fatal(resp.Msg)
	}
	resp := s.Exec(d.ShowConfigCommand())
	if !resp.OK || len(resp.Data) != 1 {
		t.Fatalf("show = %+v", resp)
	}
	if strings.TrimSpace(resp.Data[0]) != line {
		t.Errorf("config line = %q, want %q", resp.Data[0], line)
	}
	d.ResetConfig()
	if d.ConfigLineCount() != 0 {
		t.Error("reset did not clear config")
	}
}

func TestShowCommandPerVendor(t *testing.T) {
	want := map[devmodel.Vendor]string{
		devmodel.Huawei: "display current-configuration",
		devmodel.Cisco:  "show running-config",
		devmodel.Nokia:  "admin display-config",
		devmodel.H3C:    "display current-configuration",
	}
	for v, cmd := range want {
		_, d := testDevice(t, v)
		if got := d.ShowConfigCommand(); got != cmd {
			t.Errorf("%s show command = %q, want %q", v, got, cmd)
		}
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	m, d := testDevice(t, devmodel.H3C)
	srv, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := DialContext(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Vendor() != string(devmodel.H3C) {
		t.Errorf("vendor = %q", cl.Vendor())
	}
	r := rand.New(rand.NewPCG(4, 4))
	var enter *devmodel.View
	for _, v := range m.Views {
		if v.Parent == m.RootView {
			enter = v
			break
		}
	}
	line := m.InstantiateWith(m.CommandByID(enter.Enter), r)
	resp, err := cl.Exec(line)
	if err != nil || !resp.OK {
		t.Fatalf("exec %q: %v %+v", line, err, resp)
	}
	resp, err = cl.Exec("garbage input here")
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("garbage accepted over the wire")
	}
	resp, err = cl.Exec(d.ShowConfigCommand())
	if err != nil || !resp.OK {
		t.Fatalf("show: %v %+v", err, resp)
	}
	if len(resp.Data) != 1 || strings.TrimSpace(resp.Data[0]) != line {
		t.Errorf("dump = %v, want [%q]", resp.Data, line)
	}
	if _, err := cl.Exec("bad\nline"); err == nil {
		t.Error("newline in CLI line accepted")
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	srv, err := Serve(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var enter *devmodel.View
	for _, v := range m.Views {
		if v.Parent == m.RootView {
			enter = v
			break
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			cl, err := DialContext(context.Background(), srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			r := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < 10; i++ {
				line := m.InstantiateWith(m.CommandByID(enter.Enter), r)
				resp, err := cl.Exec(line)
				if err != nil {
					errs <- err
					return
				}
				if !resp.OK {
					errs <- errors.New("valid enter line rejected: " + resp.Msg)
					return
				}
				if _, err := cl.Exec("return"); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := d.ConfigLineCount(); got != workers*10 {
		t.Errorf("config lines = %d, want %d", got, workers*10)
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := DialContext(context.Background(), "127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestEmptyLineIsNoOp(t *testing.T) {
	_, d := testDevice(t, devmodel.Cisco)
	s := d.NewSession()
	if resp := s.Exec("   "); !resp.OK {
		t.Error("blank line rejected")
	}
	if d.ConfigLineCount() != 0 {
		t.Error("blank line recorded")
	}
}
