package device

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"nassim/internal/devmodel"
)

// TestShowViewStableUnderAppendAndReseed pins the store's contract: the
// running configuration is only appended to or replaced, and show hands
// out a view capped at its length, so a view taken while other sessions
// append and SeedConfig replaces the store keeps reading the lines it was
// taken with. Under -race an in-place write into a view's range is a
// reported race.
func TestShowViewStableUnderAppendAndReseed(t *testing.T) {
	m, d := testDevice(t, devmodel.Huawei)
	var enter *devmodel.View
	for _, v := range m.Views {
		if v.Parent == m.RootView {
			enter = v
			break
		}
	}
	seed := []string{"sysname edge", " interface 1", "  shutdown"}
	show := d.ShowConfigCommand()
	s := d.NewSession()
	r := rand.New(rand.NewPCG(5, 5))

	// A holder appending to its view must not reach the store, whose
	// backing array has room past the view once a line is recorded.
	d.SeedConfig(seed)
	if resp := s.Exec(m.InstantiateWith(m.CommandByID(enter.Enter), r)); !resp.OK {
		t.Fatal(resp.Msg)
	}
	s.Exec("return")
	view := s.Exec(show).Data
	next := m.InstantiateWith(m.CommandByID(enter.Enter), r)
	if resp := s.Exec(next); !resp.OK {
		t.Fatal(resp.Msg)
	}
	s.Exec("return")
	_ = append(view, "written by the view's holder")
	if got := s.Exec(show).Data; got[len(view)] != next {
		t.Fatalf("line %d = %q after appending to an earlier view, want %q", len(view), got[len(view)], next)
	}
	// Nor may a re-seed write into the array the view reads.
	d.SeedConfig([]string{"sysname core"})
	if view[0] != seed[0] {
		t.Fatalf("view line 0 = %q after a re-seed, want %q", view[0], seed[0])
	}

	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			ws := d.NewSession()
			wr := rand.New(rand.NewPCG(seed, seed))
			for i := 0; i < perWriter; i++ {
				if resp := ws.Exec(m.InstantiateWith(m.CommandByID(enter.Enter), wr)); !resp.OK {
					t.Errorf("enter line rejected: %s", resp.Msg)
					return
				}
				ws.Exec("return")
			}
		}(uint64(w + 1))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			d.SeedConfig([]string{fmt.Sprintf("sysname edge-%d", i), " interface 1"})
		}
	}()
	type taken struct{ view, copy []string }
	views := []taken{{view, slices.Clone(view)}}
	for i := 0; i < 100; i++ {
		v := s.Exec(show).Data
		views = append(views, taken{v, slices.Clone(v)})
	}
	wg.Wait()
	for i, tk := range views {
		if !slices.Equal(tk.view, tk.copy) {
			t.Fatalf("view %d changed under its holder: %q, taken as %q", i, tk.view, tk.copy)
		}
	}
}

func TestResponseShows(t *testing.T) {
	resp := Response{OK: true, Data: []string{"sysname edge", " interface 1", "  shutdown "}}
	for line, want := range map[string]bool{
		"sysname edge": true,
		"interface 1":  true,
		"shutdown":     true,
		" interface 1": false, // the dump line is trimmed, the query is not
		"interface 2":  false,
	} {
		if got := resp.Shows(line); got != want {
			t.Errorf("Shows(%q) = %v, want %v", line, got, want)
		}
	}
	if (Response{OK: true}).Shows("") {
		t.Error("an empty dump shows a line")
	}
}
