package cgm

import (
	"fmt"

	"nassim/internal/artifact"
	"nassim/internal/devmodel"
)

// Binary (de)serialization of compiled CGMs for the nassim-art/v1
// artifact store. Persisting the compiled FSM — nodes, successor lists,
// token bounds — lets a warm pipeline start skip both template parsing
// and FSM construction; reloading an index is a linear scan over the
// stored graphs plus the cheap rebuild of their index keys and the
// key-to-graphs map, neither of which is stored.

// AppendGraphBinary writes one compiled graph.
func AppendGraphBinary(e *artifact.Enc, g *Graph) {
	e.Uvarint(uint64(len(g.nodes)))
	for _, n := range g.nodes {
		e.Uvarint(uint64(n.kind))
		e.String(n.text)
		e.Int(int64(n.typ))
	}
	for _, succ := range g.succ {
		e.Uvarint(uint64(len(succ)))
		for _, s := range succ {
			e.Uvarint(uint64(s))
		}
	}
	e.Uvarint(uint64(g.root))
	e.Uvarint(uint64(g.terminal))
	e.Int(int64(g.minToks))
	e.Int(int64(g.maxToks))
}

// DecodeGraphBinary reads a graph written by AppendGraphBinary. Node and
// successor indices are bounds-checked so a corrupted section cannot
// produce a graph that panics at match time.
func DecodeGraphBinary(d *artifact.Dec) (*Graph, error) {
	n := int(d.Uvarint())
	if d.Err() != nil || n < 2 || n > 1<<24 { // a compiled CGM has at least root+terminal
		return nil, fmt.Errorf("cgm: binary decode: bad node count %d", n)
	}
	g := &Graph{nodes: make([]node, n), succ: make([][]int, n)}
	for i := range g.nodes {
		kind := NodeKind(d.Uvarint())
		if kind < KindRoot || kind > KindParam {
			return nil, fmt.Errorf("cgm: binary decode: bad node kind %d", kind)
		}
		g.nodes[i] = node{kind: kind, text: d.String(), typ: devmodel.ParamType(d.Int())}
	}
	for i := range g.succ {
		m := int(d.Uvarint())
		if d.Err() != nil || m < 0 || m > n {
			return nil, fmt.Errorf("cgm: binary decode: bad successor count")
		}
		if m == 0 {
			continue
		}
		succ := make([]int, m)
		for j := range succ {
			s := int(d.Uvarint())
			if s < 0 || s >= n {
				return nil, fmt.Errorf("cgm: binary decode: successor out of range")
			}
			succ[j] = s
		}
		g.succ[i] = succ
	}
	g.root = int(d.Uvarint())
	g.terminal = int(d.Uvarint())
	g.minToks = int(d.Int())
	g.maxToks = int(d.Int())
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cgm: binary decode: %w", err)
	}
	if g.root < 0 || g.root >= n || g.terminal < 0 || g.terminal >= n {
		return nil, fmt.Errorf("cgm: binary decode: root/terminal out of range")
	}
	g.keys = g.indexKeys()
	return g, nil
}

// AppendIndexBinary writes a whole template index: IDs in insertion
// order, each with its compiled graph.
func AppendIndexBinary(e *artifact.Enc, ix *Index) {
	e.Uvarint(uint64(len(ix.order)))
	for _, id := range ix.order {
		e.String(id)
		AppendGraphBinary(e, ix.graphs[id])
	}
}

// DecodeIndexBinary reads an index written by AppendIndexBinary, filing
// the decoded graphs through the same register call Add uses (the index
// keys are a pure function of each graph). No template is parsed
// and no FSM is constructed — this is the warm-start path that makes
// reloading a validated VDM cheap enough to do on every check.
func DecodeIndexBinary(d *artifact.Dec) (*Index, error) {
	n := int(d.Uvarint())
	if d.Err() != nil || n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("cgm: binary index decode: bad template count")
	}
	ix := NewIndex()
	for i := 0; i < n; i++ {
		id := d.String()
		g, err := DecodeGraphBinary(d)
		if err != nil {
			return nil, err
		}
		if _, dup := ix.graphs[id]; dup {
			return nil, fmt.Errorf("cgm: binary index decode: duplicate id %q", id)
		}
		ix.register(id, g)
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("cgm: binary index decode: %w", err)
	}
	return ix, nil
}

// EqualGraphs reports structural equality of two compiled graphs; the
// round-trip tests use it to prove decoded FSMs match the originals.
func EqualGraphs(a, b *Graph) bool {
	if len(a.nodes) != len(b.nodes) || a.root != b.root || a.terminal != b.terminal ||
		a.minToks != b.minToks || a.maxToks != b.maxToks {
		return false
	}
	for i := range a.nodes {
		if a.nodes[i] != b.nodes[i] {
			return false
		}
	}
	for i := range a.succ {
		if len(a.succ[i]) != len(b.succ[i]) {
			return false
		}
		for j := range a.succ[i] {
			if a.succ[i][j] != b.succ[i][j] {
				return false
			}
		}
	}
	return true
}
