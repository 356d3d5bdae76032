package htmlparse

import (
	"fmt"
	"strings"
	"testing"
)

// arenaCases are markup shapes that exercise every tree-builder rule:
// implied end tags, stray closes, raw-text swallowing, void elements,
// comments, doctypes, entities, and malformed tails.
var arenaCases = []string{
	samplePage,
	"<div class='x y  z'>a<b>c</div>",
	"<ul><li>a<li>b</ul>",
	"<table><tr><td>a<td>b<tr><th>c</table>",
	"<dl><dt>t<dd>d<dt>t2</dl>",
	"<p>one<p>two<p>three",
	"<select><option>a<option>b</select>",
	"<!DOCTYPE html><html><body>x</body></html>",
	"<!-- comment --><div>after</div>",
	"<!-- open comment",
	"<script>if(a<b){}</script>after",
	"<br/><hr /><input type=checkbox checked>",
	"< no tag >",
	"",
	"&amp;&#x41;&bogus;",
	"<a href=\"x&amp;y\" class=\"c&amp;d\">t&nbsp;u</a>",
	"<div><span>unclosed",
	"</stray><div>x</div></also-stray>",
	"<td>\n   \n</td>",
	"<em>é中文</em>",
}

// TestArenaMatchesParse holds the arena builder equal to the reference
// builder on every tree-builder rule.
func TestArenaMatchesParse(t *testing.T) {
	a := NewArena(NewIntern())
	for i, src := range arenaCases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want := renderTree(ParseReference(src))
			got := renderTree(a.ParseString(src))
			if want != got {
				t.Fatalf("tree mismatch:\nreference: %s\narena: %s", want, got)
			}
		})
	}
}

// TestArenaReuse parses a page stream through one arena — the production
// access pattern — and checks each tree is correct at time of use,
// including returning to a page after the slabs grew past it.
func TestArenaReuse(t *testing.T) {
	a := NewArena(NewIntern())
	order := []int{1, 0, 2, 0, 1}
	big := samplePage
	srcs := []string{big, "<div class='x'>a<b>c</div>", "<ul><li>a<li>b</ul>"}
	for _, i := range order {
		want := renderTree(ParseReference(srcs[i]))
		got := renderTree(a.ParseString(srcs[i]))
		if want != got {
			t.Fatalf("page %d after reuse: tree mismatch", i)
		}
	}
}

// TestArenaParentLinks checks structural invariants the renderer cannot
// see: parent pointers and sibling navigation inside the slab.
func TestArenaParentLinks(t *testing.T) {
	a := NewArena(NewIntern())
	doc := a.ParseString(samplePage)
	count := 0
	doc.Walk(func(n *Node) bool {
		count++
		for _, c := range n.Children {
			if c.Parent != n {
				t.Fatal("inconsistent parent link in arena tree")
			}
		}
		return true
	})
	if count < 10 {
		t.Fatalf("sample page produced only %d nodes", count)
	}
	divs := doc.ByTag("td")
	if len(divs) == 0 {
		t.Fatal("sample page has no <td>")
	}
	if sib := divs[0].NextSiblingElement(); sib == nil || sib.Tag != "td" {
		t.Fatalf("sibling navigation broken: %v", sib)
	}
}

// FuzzArenaMatchesParse holds the arena equal to the reference builder
// on arbitrary input — same trees, no panics — while reusing one arena
// across all fuzz executions to also exercise slab reuse.
func FuzzArenaMatchesParse(f *testing.F) {
	for _, seed := range arenaCases {
		f.Add(seed)
	}
	a := NewArena(NewIntern())
	f.Fuzz(func(t *testing.T, src string) {
		want := renderTree(ParseReference(src))
		got := renderTree(a.ParseString(src))
		if want != got {
			t.Fatalf("tree mismatch:\nreference: %s\narena: %s", want, got)
		}
	})
}

// collapseSpaceReference is the expression CollapseSpace replaced; the
// tests below hold the single-pass rewrite byte-equal to it.
func collapseSpaceReference(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func TestCollapseSpaceMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "  ", "a", " a", "a ", " a ", "a b", "a  b", "a\tb",
		"\n a \t b \r", "display ip  interface", "a b", " ",
		"héllo  wörld", "x y", "tab\there", "already collapsed text",
	}
	for _, s := range cases {
		if got, want := CollapseSpace(s), collapseSpaceReference(s); got != want {
			t.Errorf("CollapseSpace(%q) = %q, want %q", s, got, want)
		}
	}
}

func TestEachFieldMatchesReference(t *testing.T) {
	cases := []string{
		"", " ", "a", " a b  c ", "x y", "a\tb\nc", "<ip> addr",
	}
	for _, s := range cases {
		var got []string
		EachField(s, func(f string) { got = append(got, f) })
		want := strings.Fields(s)
		if len(got) != len(want) {
			t.Fatalf("EachField(%q) = %q, want %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("EachField(%q)[%d] = %q, want %q", s, i, got[i], want[i])
			}
		}
	}
}

func FuzzCollapseSpaceMatchesReference(f *testing.F) {
	for _, s := range []string{"", " a  b ", "x y", " ", "a\tb"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := CollapseSpace(s), collapseSpaceReference(s); got != want {
			t.Fatalf("CollapseSpace(%q) = %q, want %q", s, got, want)
		}
		var got []string
		EachField(s, func(f string) { got = append(got, f) })
		want := strings.Fields(s)
		if len(got) != len(want) {
			t.Fatalf("EachField(%q) = %q, want %q", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("EachField(%q)[%d] = %q, want %q", s, i, got[i], want[i])
			}
		}
	})
}
