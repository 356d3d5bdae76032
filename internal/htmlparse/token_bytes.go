package htmlparse

import (
	"bytes"
	"strings"
)

// ByteTokenizer is the single-pass, []byte-backed twin of the reference
// Tokenizer in reference_test.go. It produces the exact same token stream
// (a fuzz test holds the two equivalent) while eliminating the per-token
// string churn of the string path: tag names, attribute keys and class
// attribute values are funneled through an interning pool, attribute
// structs are carved out of a per-tokenizer slab, and lowercasing goes
// through a reusable scratch buffer instead of strings.ToLower
// allocations. One ByteTokenizer must not be shared between goroutines
// (its scratch state is per-instance); the pool it draws from is
// concurrency-safe and meant to be shared.
type ByteTokenizer struct {
	src  []byte
	pos  int
	pool interner
	// scratch holds ASCII-lowercased token bytes between Next calls.
	scratch []byte
	// attrSlab amortizes attribute allocations: tokens slice their Attrs
	// out of it (full-capacity subslices, so later growth never aliases).
	attrSlab []Attr
	// fastTab is a direct-mapped cache in front of the interning pool.
	// The intern vocabulary of a manual is a handful of tag names, attr
	// keys, class values, and indentation runs repeated tens of thousands
	// of times; resolving repeats with one byte-compare instead of a map
	// hash removes the dominant cost of the slab-amortized decode path.
	// Collisions just fall through to the pool, so it is always correct.
	fastTab [fastTabSize]string
}

const (
	fastTabSize = 256
	fastTabMask = fastTabSize - 1
)

// fastIntern resolves b through the direct-mapped cache, falling back to
// (and refilling from) the interning pool on miss.
func (z *ByteTokenizer) fastIntern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	h := (uint(b[0])*131 + uint(b[len(b)-1])*31 + uint(len(b))) & fastTabMask
	if v := z.fastTab[h]; v == string(b) { // no alloc: comparison conversion
		return v
	}
	v := z.pool.Intern(b)
	z.fastTab[h] = v
	return v
}

// NewByteTokenizer returns a ByteTokenizer reading from src, interning
// repeated names through pool (nil uses the shared default pool).
func NewByteTokenizer(src []byte, pool *Intern) *ByteTokenizer {
	if pool == nil {
		pool = defaultIntern
	}
	return &ByteTokenizer{src: src, pool: pool}
}

// Reset points the tokenizer at a new document while keeping its scratch
// buffer and attribute slab, so one tokenizer amortizes its allocations
// across a worker's whole page stream. Attrs handed out from the slab for
// the previous document are invalidated — the caller must be done with
// the previous page's tokens (and any DOM aliasing them) before Reset.
func (z *ByteTokenizer) Reset(src []byte) {
	z.src = src
	z.pos = 0
	z.attrSlab = z.attrSlab[:0]
}

// Next returns the next token, or false when the input is exhausted.
func (z *ByteTokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.src[z.pos] != '<' {
		return z.text(), true
	}
	rest := z.src[z.pos:]
	if len(rest) > 1 {
		switch c := rest[1]; {
		case isTagNameStart(c):
			return z.startTag(), true
		case c == '/':
			return z.endTag(), true
		case c == '!':
			if bytes.HasPrefix(rest, []byte("<!--")) {
				return z.comment(), true
			}
			return z.doctype(), true
		}
	}
	return z.textFromBracket(), true
}

// lowerIntern interns the ASCII-lowercased form of b through the scratch
// buffer; non-ASCII bytes fall back to the unicode-aware strings.ToLower
// so the byte path stays equivalent to the string tokenizer.
func (z *ByteTokenizer) lowerIntern(b []byte) string {
	ascii, lower := true, true
	for _, c := range b {
		if c >= 0x80 {
			ascii = false
			break
		}
		if c >= 'A' && c <= 'Z' {
			lower = false
		}
	}
	if !ascii {
		return z.pool.InternString(strings.ToLower(string(b)))
	}
	if lower {
		// Generated and modern hand-written markup is already lowercase;
		// skip the scratch copy entirely.
		return z.fastIntern(b)
	}
	z.scratch = z.scratch[:0]
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		z.scratch = append(z.scratch, c)
	}
	return z.fastIntern(z.scratch)
}

// textData converts a raw text run into token data, mirroring the
// reference UnescapeEntities (reference_test.go). Whitespace-only runs
// (the indentation between manual markup elements, repeated on every
// line) are interned.
func (z *ByteTokenizer) textData(b []byte) string {
	if bytes.IndexByte(b, '&') < 0 {
		if isAllSpace(b) {
			return z.fastIntern(b)
		}
		if len(b) <= internableTextLen {
			// Manual text is template-generated from a bounded vocabulary:
			// the same command words, parameter names, and boilerplate
			// phrases recur across thousands of pages. Interning short
			// runs replaces the per-token copy (and its GC scan work)
			// with a byte-compare in the common case.
			return z.fastIntern(b)
		}
		return string(b)
	}
	return unescapeEntityBytes(b)
}

// internableTextLen caps which text runs are interned. Long runs (full
// description paragraphs) are likelier unique; interning them would grow
// the pool without reuse.
const internableTextLen = 64

func isAllSpace(b []byte) bool {
	for _, c := range b {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// unescapeEntityBytes is the reference UnescapeEntities over a byte
// slice, kept byte-for-byte equivalent (the fuzz test compares the two
// paths).
func unescapeEntityBytes(s []byte) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := bytes.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if rep, ok := entityTable[string(name)]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if len(name) > 0 && name[0] == '#' {
			if r, ok := parseNumericRef(string(name[1:])); ok {
				b.WriteRune(r)
				i += semi + 1
				continue
			}
		}
		b.WriteByte(c)
		i++
	}
	return b.String()
}

func (z *ByteTokenizer) text() Token {
	start := z.pos
	if i := bytes.IndexByte(z.src[z.pos:], '<'); i < 0 {
		z.pos = len(z.src)
	} else {
		z.pos += i
	}
	return Token{Type: TextToken, Data: z.textData(z.src[start:z.pos])}
}

func (z *ByteTokenizer) textFromBracket() Token {
	start := z.pos
	z.pos++ // consume '<'
	if i := bytes.IndexByte(z.src[z.pos:], '<'); i < 0 {
		z.pos = len(z.src)
	} else {
		z.pos += i
	}
	return Token{Type: TextToken, Data: z.textData(z.src[start:z.pos])}
}

func (z *ByteTokenizer) comment() Token {
	end := bytes.Index(z.src[z.pos+4:], []byte("-->"))
	if end < 0 {
		data := string(z.src[z.pos+4:])
		z.pos = len(z.src)
		return Token{Type: CommentToken, Data: data}
	}
	data := string(z.src[z.pos+4 : z.pos+4+end])
	z.pos += 4 + end + 3
	return Token{Type: CommentToken, Data: data}
}

func (z *ByteTokenizer) doctype() Token {
	end := bytes.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		data := string(z.src[z.pos+2:])
		z.pos = len(z.src)
		return Token{Type: DoctypeToken, Data: data}
	}
	data := string(z.src[z.pos+2 : z.pos+end])
	z.pos += end + 1
	return Token{Type: DoctypeToken, Data: data}
}

func (z *ByteTokenizer) endTag() Token {
	end := bytes.IndexByte(z.src[z.pos:], '>')
	var raw []byte
	if end < 0 {
		raw = z.src[z.pos+2:]
		z.pos = len(z.src)
	} else {
		raw = z.src[z.pos+2 : z.pos+end]
		z.pos += end + 1
	}
	return Token{Type: EndTagToken, Data: z.lowerIntern(bytes.TrimSpace(raw))}
}

func (z *ByteTokenizer) startTag() Token {
	i := z.pos + 1
	nameStart := i
	for i < len(z.src) && isTagNameByte(z.src[i]) {
		i++
	}
	name := z.lowerIntern(z.src[nameStart:i])
	slabStart := len(z.attrSlab)
	selfClosing := false
	for i < len(z.src) {
		for i < len(z.src) && isSpace(z.src[i]) {
			i++
		}
		if i >= len(z.src) {
			break
		}
		if z.src[i] == '>' {
			i++
			break
		}
		if z.src[i] == '/' {
			selfClosing = true
			i++
			continue
		}
		aStart := i
		for i < len(z.src) && z.src[i] != '=' && z.src[i] != '>' && z.src[i] != '/' && !isSpace(z.src[i]) {
			i++
		}
		key := z.lowerIntern(z.src[aStart:i])
		if key == "" {
			i++ // avoid infinite loop on stray bytes
			continue
		}
		var rawVal []byte
		if i < len(z.src) && z.src[i] == '=' {
			i++
			if i < len(z.src) && (z.src[i] == '"' || z.src[i] == '\'') {
				quote := z.src[i]
				i++
				vStart := i
				if q := bytes.IndexByte(z.src[i:], quote); q < 0 {
					i = len(z.src)
				} else {
					i += q
				}
				rawVal = z.src[vStart:i]
				if i < len(z.src) {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < len(z.src) && !isSpace(z.src[i]) && z.src[i] != '>' {
					i++
				}
				rawVal = z.src[vStart:i]
			}
		}
		z.attrSlab = append(z.attrSlab, Attr{Key: key, Val: z.attrValue(key, rawVal)})
	}
	z.pos = i
	var attrs []Attr
	if n := len(z.attrSlab) - slabStart; n > 0 {
		attrs = z.attrSlab[slabStart:len(z.attrSlab):len(z.attrSlab)]
	}
	typ := StartTagToken
	if selfClosing || voidElements[name] {
		typ = SelfClosingToken
	}
	tok := Token{Type: typ, Data: name, Attrs: attrs}
	// Raw-text elements: swallow content up to the matching close tag.
	if typ == StartTagToken && rawTextTags[name] {
		idx := indexFoldASCII(z.src[z.pos:], "</"+name)
		if idx < 0 {
			z.pos = len(z.src)
		} else {
			z.pos += idx
		}
	}
	return tok
}

// attrValue decodes one attribute value. Class attributes are interned:
// a manual corpus reuses the same few styling classes on every page, and
// the DOM builder splits them into per-node class lists that the vendor
// parsers query constantly.
func (z *ByteTokenizer) attrValue(key string, raw []byte) string {
	if len(raw) == 0 {
		return ""
	}
	if bytes.IndexByte(raw, '&') < 0 {
		if key == "class" {
			return z.fastIntern(raw)
		}
		return string(raw)
	}
	v := unescapeEntityBytes(raw)
	if key == "class" {
		return z.pool.InternString(v)
	}
	return v
}

// indexFoldASCII returns the first index of needle in haystack under
// ASCII case folding (needle must already be lowercase ASCII). The
// tokenizer uses it for raw-text close-tag search, so positions are
// byte-accurate even when the swallowed content holds multi-byte runes
// whose unicode lowercase form has a different length.
func indexFoldASCII(haystack []byte, needle string) int {
	if len(needle) == 0 {
		return 0
	}
	first := needle[0]
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if lowerASCII(haystack[i]) != first {
			continue
		}
		ok := true
		for j := 1; j < len(needle); j++ {
			if lowerASCII(haystack[i+j]) != needle[j] {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

func lowerASCII(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
