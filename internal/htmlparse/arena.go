package htmlparse

import (
	"strings"
	"unsafe"
)

// Arena is the production DOM builder, built for high-throughput page
// streams. Where the reference builder (ParseReference, in
// reference_test.go) allocates every Node and Children slice
// individually — the dominant GC pressure of a manual-batch parse — an
// Arena lays all nodes of a page out in one reusable slab, links children
// through one shared pointer slab, and keeps its tokenizer (scratch
// buffer, attribute slab) across pages, consuming tokens as they are
// produced instead of buffering them.
// Parsing N pages through one Arena performs O(1) slab allocations once
// the slabs have grown to the largest page.
//
// The returned tree is structurally identical to ParseReference's (the
// golden and fuzz equivalence tests hold the two equal), but it aliases
// arena storage: the next Parse/ParseString call on the same Arena
// invalidates every Node of the previous tree. Callers must extract what
// they keep — strings are safe, *Node references are not. An Arena is not
// safe for concurrent use; give each worker its own and share the
// interning pool.
type Arena struct {
	cached *CachedIntern
	tok    *ByteTokenizer
	src    []byte // reusable copy buffer for ParseString

	nodes  []Node  // node slab; index 0 is the document node
	parent []int32 // creation-order parent index, -1 for the document
	cnt    []int32 // children per node
	off    []int32 // start of each node's children in kids
	cur    []int32 // fill cursor per node during linking
	stack  []int32 // open-element stack (indices into nodes)
	kids   []*Node // shared children pointer slab

	// classCache memoizes the split-and-interned class list per distinct
	// class attribute value. Manual markup repeats the same few class
	// attributes on thousands of elements; one split each is enough. The
	// cached slices are shared across nodes and must stay read-only
	// (Classes() already hands them out under that contract). clsTab is a
	// direct-mapped cache in front of the map, hashed on the attribute
	// value's data pointer — class values are interned, so the canonical
	// string's backing pointer is a stable identity and the common case
	// (same few class attributes, repeated) resolves without a map hash.
	classCache map[string][]string
	clsTab     [clsTabSize]classEntry
}

type classEntry struct {
	key    string
	fields []string
}

const (
	clsTabSize = 64
	clsTabMask = clsTabSize - 1
)

// NewArena returns an empty arena interning through pool (nil uses the
// shared default pool). All interning goes through a per-arena unlocked
// cache in front of the shared pool, so canonical string identity still
// spans workers while repeat lookups skip the pool's lock.
func NewArena(pool *Intern) *Arena {
	cached := NewCachedIntern(pool)
	tok := NewByteTokenizer(nil, nil)
	tok.pool = cached
	return &Arena{cached: cached, tok: tok, classCache: map[string][]string{}}
}

// ParseString parses an HTML document held as a string, copying it into
// the arena's reusable byte buffer first. The copy is one memmove; the
// alternative — converting per call — would allocate a fresh buffer for
// every page.
func (a *Arena) ParseString(src string) *Node {
	a.src = append(a.src[:0], src...)
	return a.Parse(a.src)
}

// Parse builds the DOM of one document into the arena's slabs and
// returns its document node. See the type comment for the aliasing
// contract.
func (a *Arena) Parse(src []byte) *Node {
	a.tok.Reset(src)
	a.buildNodes()
	a.linkChildren()
	return &a.nodes[0]
}

// buildNodes streams tokens straight into the node slab, running the
// exact tree-construction algorithm of the reference buildDOM
// (reference_test.go) — implied end tags, stray-close tolerance, class
// caching — and recording each node's parent by index. No pointers are
// taken yet, so slab growth is free to reallocate.
func (a *Arena) buildNodes() {
	a.nodes = append(a.nodes[:0], Node{Type: DocumentNode})
	a.parent = append(a.parent[:0], -1)
	stack := append(a.stack[:0], 0)
	top := func() int32 { return stack[len(stack)-1] }

	for {
		tok, ok := a.tok.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			a.nodes = append(a.nodes, Node{Type: TextNode, Data: tok.Data})
			a.parent = append(a.parent, top())
		case CommentToken:
			a.nodes = append(a.nodes, Node{Type: CommentNode, Data: tok.Data})
			a.parent = append(a.parent, top())
		case DoctypeToken:
			// Ignored: the DOM does not model doctypes.
		case SelfClosingToken:
			a.nodes = append(a.nodes, Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
			a.parent = append(a.parent, top())
			a.setClasses(&a.nodes[len(a.nodes)-1])
		case StartTagToken:
			if closes, ok := impliedEndTags[tok.Data]; ok {
				for len(stack) > 1 {
					t := a.nodes[top()].Tag
					closed := false
					for _, c := range closes {
						if t == c {
							stack = stack[:len(stack)-1]
							closed = true
							break
						}
					}
					if !closed {
						break
					}
				}
			}
			idx := int32(len(a.nodes))
			a.nodes = append(a.nodes, Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs})
			a.parent = append(a.parent, top())
			a.setClasses(&a.nodes[idx])
			stack = append(stack, idx)
		case EndTagToken:
			// Pop to the nearest matching open element; ignore stray closes.
			for i := len(stack) - 1; i >= 1; i-- {
				if a.nodes[stack[i]].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	a.stack = stack[:0]
}

// setClasses is the arena's form of the reference builder's cacheClasses
// (reference_test.go): same observable result, but the split-and-intern
// work runs once per distinct class attribute value instead of once per
// element. The class attribute value is already
// canonical (attrValue interns it), so it is a stable cache key.
func (a *Arena) setClasses(n *Node) {
	n.classesSet = true
	v, ok := n.Attr("class")
	if !ok || v == "" {
		return
	}
	e := &a.clsTab[(uintptr(unsafe.Pointer(unsafe.StringData(v)))>>3)&clsTabMask]
	if e.key == v {
		n.classes = e.fields
		return
	}
	fields, hit := a.classCache[v]
	if !hit {
		fields = strings.Fields(v)
		for i, f := range fields {
			fields[i] = a.cached.InternString(f)
		}
		a.classCache[v] = fields
	}
	e.key, e.fields = v, fields
	n.classes = fields
}

// linkChildren wires Parent pointers and Children slices in a second
// pass. The node slab is final now, so every &a.nodes[i] is stable.
// Children of one parent were created in document order, so a single
// in-order placement pass reproduces sibling order; each Children slice
// is a full-capacity cut of the shared kids slab.
func (a *Arena) linkChildren() {
	n := len(a.nodes)
	if cap(a.cnt) < n {
		a.cnt = make([]int32, n)
		a.off = make([]int32, n)
		a.cur = make([]int32, n)
	}
	cnt, off, cur := a.cnt[:n], a.off[:n], a.cur[:n]
	for i := range cnt {
		cnt[i], cur[i] = 0, 0
	}
	for j := 1; j < n; j++ {
		cnt[a.parent[j]]++
	}
	total := int32(0)
	for i := 0; i < n; i++ {
		off[i] = total
		total += cnt[i]
	}
	if cap(a.kids) < int(total) {
		a.kids = make([]*Node, total)
	}
	kids := a.kids[:total]
	for j := 1; j < n; j++ {
		p := a.parent[j]
		kids[off[p]+cur[p]] = &a.nodes[j]
		cur[p]++
		a.nodes[j].Parent = &a.nodes[p]
	}
	for i := 0; i < n; i++ {
		if c := cnt[i]; c > 0 {
			o := off[i]
			a.nodes[i].Children = kids[o : o+c : o+c]
		}
	}
}
