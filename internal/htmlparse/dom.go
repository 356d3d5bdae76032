package htmlparse

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// NodeType distinguishes the kinds of DOM nodes.
type NodeType int

// DOM node kinds.
const (
	DocumentNode NodeType = iota
	ElementNode
	TextNode
	CommentNode
)

// Node is a node in the parsed DOM tree.
type Node struct {
	Type     NodeType
	Tag      string // element tag name (lower case), empty otherwise
	Data     string // text content for TextNode/CommentNode
	Attrs    []Attr
	Parent   *Node
	Children []*Node

	// classes caches the split class attribute (computed once at parse
	// time): the vendor parsers run many whole-tree class queries per
	// page, and re-splitting the attribute on every HasClass call was a
	// dominant allocation source. classesSet marks the cache as valid so
	// hand-built nodes still fall back to on-demand splitting.
	classes    []string
	classesSet bool
}

// Attr returns the value of the named attribute and whether it was present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// Classes returns the element's CSS classes.
func (n *Node) Classes() []string {
	if n.classesSet {
		return n.classes
	}
	v, ok := n.Attr("class")
	if !ok {
		return nil
	}
	return strings.Fields(v)
}

// HasClass reports whether the element carries the given CSS class.
func (n *Node) HasClass(class string) bool {
	for _, c := range n.Classes() {
		if c == class {
			return true
		}
	}
	return false
}

// Text returns the concatenation of all text beneath the node with runs of
// whitespace collapsed to single spaces and the result trimmed. This mirrors
// how a human reads the rendered manual page.
func (n *Node) Text() string {
	var b strings.Builder
	n.appendText(&b)
	return CollapseSpace(b.String())
}

// RawText returns the concatenation of all text beneath the node without
// whitespace normalization. Useful for <pre> blocks where the manuals encode
// configuration-snippet indentation that the hierarchy deriver depends on.
func (n *Node) RawText() string {
	var b strings.Builder
	n.appendText(&b)
	return b.String()
}

func (n *Node) appendText(b *strings.Builder) {
	switch n.Type {
	case TextNode:
		b.WriteString(n.Data)
	case ElementNode, DocumentNode:
		if n.Tag == "br" {
			b.WriteByte('\n')
		}
		for _, c := range n.Children {
			c.appendText(b)
		}
	}
}

// asciiSpaceSet marks the ASCII bytes unicode.IsSpace reports as space.
var asciiSpaceSet = [128]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// CollapseSpace replaces runs of whitespace with single spaces and trims.
// Equivalent to strings.Join(strings.Fields(s), " ") — the reference
// expression a fuzz test holds it against — but single-pass: most inputs
// (element texts queried repeatedly by the vendor parsers) are already
// collapsed and are returned without allocating.
func CollapseSpace(s string) string {
	// Fast scan: ASCII input that is already collapsed passes through.
	prevSpace := true // rejects a leading space
	i := 0
	for ; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			break // non-ASCII whitespace (e.g. U+00A0) needs the rune path
		}
		if asciiSpaceSet[c] {
			if c != ' ' || prevSpace {
				break
			}
			prevSpace = true
		} else {
			prevSpace = false
		}
	}
	if i == len(s) {
		if len(s) > 0 && !prevSpace {
			return s
		}
		if len(s) == 0 {
			return s
		}
	}
	// Collapse by slicing fields out of s (never re-encoding runes, so
	// invalid UTF-8 passes through byte-for-byte like strings.Fields).
	var b strings.Builder
	b.Grow(len(s))
	start := -1
	flush := func(end int) {
		if start < 0 {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s[start:end])
		start = -1
	}
	for j := 0; j < len(s); {
		r, size := utf8.DecodeRuneInString(s[j:])
		if (r < 0x80 && asciiSpaceSet[r]) || (r >= 0x80 && unicode.IsSpace(r)) {
			flush(j)
		} else if start < 0 {
			start = j
		}
		j += size
	}
	flush(len(s))
	return b.String()
}

// EachField calls fn for every whitespace-separated field of s (exactly
// strings.Fields' splitting) without allocating; the fields alias s.
func EachField(s string, fn func(string)) {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			for _, f := range strings.Fields(s) {
				fn(f)
			}
			return
		}
	}
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || asciiSpaceSet[s[i]] {
			if start >= 0 {
				fn(s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
}

// Walk visits the node and all its descendants in document order. The visit
// function returning false prunes the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// FindAll returns all descendant elements (document order) matched by pred.
func (n *Node) FindAll(pred func(*Node) bool) []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m != n && m.Type == ElementNode && pred(m) {
			out = append(out, m)
		}
		return true
	})
	return out
}

// Find returns the first descendant element matched by pred, or nil.
func (n *Node) Find(pred func(*Node) bool) *Node {
	var found *Node
	n.Walk(func(m *Node) bool {
		if found != nil {
			return false
		}
		if m != n && m.Type == ElementNode && pred(m) {
			found = m
			return false
		}
		return true
	})
	return found
}

// ByTag returns all descendant elements with the given tag name.
func (n *Node) ByTag(tag string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.Tag == tag })
}

// ByClass returns all descendant elements carrying the given CSS class.
func (n *Node) ByClass(class string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.HasClass(class) })
}

// ByTagClass returns descendant elements with the tag name and CSS class.
func (n *Node) ByTagClass(tag, class string) []*Node {
	return n.FindAll(func(m *Node) bool { return m.Tag == tag && m.HasClass(class) })
}

// ByAnyClass returns descendant elements carrying any of the CSS classes.
// Vendor manuals use several interchangeable class names for one concept
// (§2.2), so parsers routinely query a candidate set. Candidate sets are
// a handful of names, so membership is a linear scan — per-call set maps
// were a measurable allocation source in the page fan-out.
func (n *Node) ByAnyClass(classes ...string) []*Node {
	return n.FindAll(func(m *Node) bool {
		for _, c := range m.Classes() {
			for _, want := range classes {
				if c == want {
					return true
				}
			}
		}
		return false
	})
}

// NextSibling returns the node's following sibling, or nil.
func (n *Node) NextSibling() *Node {
	if n.Parent == nil {
		return nil
	}
	sib := n.Parent.Children
	for i, c := range sib {
		if c == n && i+1 < len(sib) {
			return sib[i+1]
		}
	}
	return nil
}

// NextSiblingElement returns the following sibling element, skipping text.
func (n *Node) NextSiblingElement() *Node {
	for s := n.NextSibling(); s != nil; s = s.NextSibling() {
		if s.Type == ElementNode {
			return s
		}
	}
	return nil
}

// impliedEndTags lists, per element, the open elements an incoming start tag
// implicitly closes (a pragmatic subset of the HTML5 tree-builder rules that
// covers the constructs in vendor manuals).
var impliedEndTags = map[string][]string{
	"li": {"li"}, "p": {"p"}, "tr": {"tr", "td", "th"},
	"td": {"td", "th"}, "th": {"td", "th"},
	"dt": {"dt", "dd"}, "dd": {"dt", "dd"},
	"option": {"option"},
}

// Parse builds a DOM tree from an HTML document. It never fails: malformed
// markup degrades to text or is repaired with implied end tags, matching
// the tolerance needed for real vendor manuals. Parsing runs through the
// production builder, a fresh Arena over the shared interning pool.
func Parse(src string) *Node {
	return ParseBytes([]byte(src), nil)
}

// ParseBytes builds a DOM tree straight from document bytes through a
// fresh Arena — the builder every manual parse runs — interning repeated
// names in pool (nil uses the shared default pool). The tree owns its
// arena, so it stays valid for as long as the caller holds it. It is safe
// to call concurrently; workers of a parallel manual parse share one pool.
func ParseBytes(src []byte, pool *Intern) *Node {
	return NewArena(pool).Parse(src)
}
