package htmlparse

import (
	"fmt"
	"sync"
	"testing"
)

// tokensOf drains either tokenizer into a slice.
func tokensOf(z interface{ Next() (Token, bool) }) []Token {
	var out []Token
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

// requireTokensEqual compares two token streams structurally.
func requireTokensEqual(t *testing.T, want, got []Token) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("token count: string path %d, byte path %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Type != g.Type || w.Data != g.Data || len(w.Attrs) != len(g.Attrs) {
			t.Fatalf("token %d: string path %+v, byte path %+v", i, w, g)
		}
		for j := range w.Attrs {
			if w.Attrs[j] != g.Attrs[j] {
				t.Fatalf("token %d attr %d: string path %+v, byte path %+v", i, j, w.Attrs[j], g.Attrs[j])
			}
		}
	}
}

// TestByteTokenizerEquivalence holds the byte tokenizer equal to the string
// reference on representative manual markup.
func TestByteTokenizerEquivalence(t *testing.T) {
	cases := []string{
		samplePage,
		"<div class='x y  z'>a<b>c</div>",
		"<DIV CLASS=\"Upper Case\">T</DIV>",
		"<!-- open comment",
		"<script>if(a<b){}</script>after",
		"<SCRIPT>x</SCRIPT>done",
		"< no tag >",
		"",
		"<ul><li>a<li>b</ul>",
		"&amp;&#x41;&bogus;&#xZZ;&toolongentityname;",
		"<input type=checkbox checked>",
		"<br/><hr />",
		"<p a=1 b='2' c=\"3\" d>",
		"<td>\n   \n</td>",
		"<a href=\"x&amp;y\" class=\"c&amp;d\">t&nbsp;u</a>",
		"<style>h1 { color: red; }</style>",
		"<tag", "</", "</ spaced >", "<x y=",
		"<em>é中文</em>",
		"<İtag>", // non-ASCII after '<' is text, both paths
	}
	for i, src := range cases {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want := tokensOf(NewTokenizer(src))
			got := tokensOf(NewByteTokenizer([]byte(src), NewIntern()))
			requireTokensEqual(t, want, got)
		})
	}
}

// TestParseBytesMatchesReference holds the DOM produced by the byte path
// equal to the string-reference path.
func TestParseBytesMatchesReference(t *testing.T) {
	srcs := []string{samplePage, "<div class='x'>a<b>c</div>", "<ul><li>a<li>b</ul>"}
	for i, src := range srcs {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want := renderTree(ParseReference(src))
			got := renderTree(Parse(src))
			if want != got {
				t.Fatalf("tree mismatch:\nreference: %s\nbyte path: %s", want, got)
			}
		})
	}
}

// renderTree renders a tree's node kinds, tags, data, attributes and
// cached class lists, so two builders' trees compare as strings.
func renderTree(n *Node) string {
	s := fmt.Sprintf("(%d %q %q %v %q", n.Type, n.Tag, n.Data, n.Attrs, n.Classes())
	for _, c := range n.Children {
		s += " " + renderTree(c)
	}
	return s + ")"
}

// TestClassesCached checks the parse-time class cache agrees with the
// on-demand fallback and that hand-built nodes still work.
func TestClassesCached(t *testing.T) {
	doc := Parse("<div class='a b  c'>x</div>")
	div := doc.ByTag("div")[0]
	if !div.classesSet {
		t.Fatal("parsed element should have cached classes")
	}
	got := div.Classes()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("cached classes = %v", got)
	}
	hand := &Node{Type: ElementNode, Tag: "p", Attrs: []Attr{{Key: "class", Val: "q r"}}}
	if cs := hand.Classes(); len(cs) != 2 || cs[0] != "q" || cs[1] != "r" {
		t.Fatalf("fallback classes = %v", cs)
	}
}

// TestInternConcurrent hammers one pool from many goroutines (run under
// -race in CI) and checks canonicalization: equal inputs yield the same
// backing string.
func TestInternConcurrent(t *testing.T) {
	pool := NewIntern()
	const workers = 8
	const rounds = 500
	var wg sync.WaitGroup
	results := make([][]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]string, 0, rounds)
			for i := 0; i < rounds; i++ {
				b := []byte(fmt.Sprintf("tok-%d", i%37))
				out = append(out, pool.Intern(b))
				pool.InternString(fmt.Sprintf("str-%d", i%41))
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d round %d interned %q, worker 0 %q", w, i, results[w][i], results[0][i])
			}
		}
	}
	if n := pool.Len(); n != 37+41 {
		t.Fatalf("pool holds %d distinct strings, want %d", n, 37+41)
	}
}

// TestInternEmpty confirms the empty string short-circuits.
func TestInternEmpty(t *testing.T) {
	pool := NewIntern()
	if pool.Intern(nil) != "" || pool.InternString("") != "" {
		t.Fatal("empty input must intern to empty string")
	}
	if pool.Len() != 0 {
		t.Fatal("empty inputs must not populate the pool")
	}
}

// FuzzByteTokenizer holds the byte tokenizer and the string reference
// equivalent on arbitrary input: same token stream, no panics.
func FuzzByteTokenizer(f *testing.F) {
	for _, seed := range []string{
		samplePage,
		"<div class='x'>a<b>c</div>",
		"<!-- open", "<script>if(a<b){}</script>", "< no tag >", "",
		"<ul><li>a<li>b</ul>", "&amp;&#x41;&bogus;",
		"<SCRIPT a=b>x</ScRiPt>y", "<p İ>", "<x y='é'>",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want := tokensOf(NewTokenizer(src))
		got := tokensOf(NewByteTokenizer([]byte(src), NewIntern()))
		requireTokensEqual(t, want, got)
	})
}
