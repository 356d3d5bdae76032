package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval recorded by the benchmark around a call
// into the program. Spans of one vendor job or one request share Group.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Group  string    `json:"group"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory; they are written out once the run ends.
// The zero value is ready to use and safe for concurrent use.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its ID and a func that closes it.
func (t *tracer) begin(name, group string, parent int) (int, func()) {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group, Start: time.Now()})
	t.mu.Unlock()
	return id, func() {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = now
		t.mu.Unlock()
	}
}

// setEnd closes a span at a given time.
func (t *tracer) setEnd(id int, end time.Time) {
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the part of [from, to] that the union of the
// spans covers. Overlapping spans (parallel vendor jobs) count once.
func covered(from, to time.Time, spans []span) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := s.Start, s.End
		if a.Before(from) {
			a = from
		}
		if b.After(to) {
			b = to
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			total += curB.Sub(curA)
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	total += curB.Sub(curA)
	return total
}

// unattributed is the wall time of [from, to] that no span covers.
func unattributed(from, to time.Time, spans []span) time.Duration {
	return to.Sub(from) - covered(from, to, spans)
}
