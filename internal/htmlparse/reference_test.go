package htmlparse

import "strings"

// This file holds the reference path the production parser is tested
// against: a string Tokenizer and a DOM builder that allocates every node
// on its own. Nothing outside the tests calls it. ByteTokenizer and Arena
// are held equal to it by the golden, equivalence and fuzz tests
// (TestByteTokenizerEquivalence, TestArenaMatchesParse,
// FuzzByteTokenizer, FuzzArenaMatchesParse).

// Tokenizer walks an HTML document, producing a stream of Tokens.
// It is forgiving: unterminated constructs are emitted as text rather than
// reported as errors, because real vendor manuals contain malformed markup.
type Tokenizer struct {
	src string
	pos int
}

// NewTokenizer returns a Tokenizer reading from src.
func NewTokenizer(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token, or false when the input is exhausted.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.src[z.pos] != '<' {
		return z.text(), true
	}
	// '<' at current position: decide among comment, doctype, end tag, start tag.
	rest := z.src[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.comment(), true
	case strings.HasPrefix(rest, "<!"):
		return z.doctype(), true
	case strings.HasPrefix(rest, "</"):
		return z.endTag(), true
	default:
		if len(rest) > 1 && isTagNameStart(rest[1]) {
			return z.startTag(), true
		}
		// A lone '<' that does not open a tag: treat as text.
		return z.textFromBracket(), true
	}
}

func (z *Tokenizer) text() Token {
	start := z.pos
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.src[start:z.pos])}
}

// textFromBracket consumes a literal '<' plus following non-tag text.
func (z *Tokenizer) textFromBracket() Token {
	start := z.pos
	z.pos++ // consume '<'
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Type: TextToken, Data: UnescapeEntities(z.src[start:z.pos])}
}

func (z *Tokenizer) comment() Token {
	end := strings.Index(z.src[z.pos+4:], "-->")
	if end < 0 {
		data := z.src[z.pos+4:]
		z.pos = len(z.src)
		return Token{Type: CommentToken, Data: data}
	}
	data := z.src[z.pos+4 : z.pos+4+end]
	z.pos += 4 + end + 3
	return Token{Type: CommentToken, Data: data}
}

func (z *Tokenizer) doctype() Token {
	end := strings.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		data := z.src[z.pos+2:]
		z.pos = len(z.src)
		return Token{Type: DoctypeToken, Data: data}
	}
	data := z.src[z.pos+2 : z.pos+end]
	z.pos += end + 1
	return Token{Type: DoctypeToken, Data: data}
}

func (z *Tokenizer) endTag() Token {
	end := strings.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		data := z.src[z.pos+2:]
		z.pos = len(z.src)
		return Token{Type: EndTagToken, Data: strings.ToLower(strings.TrimSpace(data))}
	}
	name := strings.ToLower(strings.TrimSpace(z.src[z.pos+2 : z.pos+end]))
	z.pos += end + 1
	return Token{Type: EndTagToken, Data: name}
}

func (z *Tokenizer) startTag() Token {
	i := z.pos + 1
	nameStart := i
	for i < len(z.src) && isTagNameByte(z.src[i]) {
		i++
	}
	name := strings.ToLower(z.src[nameStart:i])
	var attrs []Attr
	selfClosing := false
	for i < len(z.src) {
		// Skip whitespace between attributes.
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
		// Attribute name.
		aStart := i
		for i < len(z.src) && z.src[i] != '=' && z.src[i] != '>' && z.src[i] != '/' && !isSpace(z.src[i]) {
			i++
		}
		key := strings.ToLower(z.src[aStart:i])
		if key == "" {
			i++ // avoid infinite loop on stray bytes
			continue
		}
		val := ""
		if i < len(z.src) && z.src[i] == '=' {
			i++
			if i < len(z.src) && (z.src[i] == '"' || z.src[i] == '\'') {
				quote := z.src[i]
				i++
				vStart := i
				for i < len(z.src) && z.src[i] != quote {
					i++
				}
				val = z.src[vStart:i]
				if i < len(z.src) {
					i++ // closing quote
				}
			} else {
				vStart := i
				for i < len(z.src) && !isSpace(z.src[i]) && z.src[i] != '>' {
					i++
				}
				val = z.src[vStart:i]
			}
		}
		attrs = append(attrs, Attr{Key: key, Val: UnescapeEntities(val)})
	}
	z.pos = i
	typ := StartTagToken
	if selfClosing || voidElements[name] {
		typ = SelfClosingToken
	}
	tok := Token{Type: typ, Data: name, Attrs: attrs}
	// Raw-text elements: swallow content up to the matching close tag so that
	// scripts containing '<' do not confuse the DOM builder. The search is
	// ASCII-case-folded byte-wise (not ToLower-then-Index, whose offsets
	// drift when a rune's lowercase form has a different byte length).
	if typ == StartTagToken && rawTextTags[name] {
		idx := indexFoldASCIIString(z.src[z.pos:], "</"+name)
		if idx < 0 {
			z.pos = len(z.src)
		} else {
			z.pos += idx
		}
	}
	return tok
}

// UnescapeEntities decodes the HTML entities used by vendor manuals,
// including numeric character references.
func UnescapeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 12 {
			b.WriteByte(c)
			i++
			continue
		}
		name := s[i+1 : i+semi]
		if rep, ok := entityTable[name]; ok {
			b.WriteString(rep)
			i += semi + 1
			continue
		}
		if strings.HasPrefix(name, "#") {
			if r, ok := parseNumericRef(name[1:]); ok {
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

// indexFoldASCIIString is indexFoldASCII over a string haystack.
func indexFoldASCIIString(haystack, needle string) int {
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

// cacheClasses splits the class attribute once at parse time, interning
// each class token so equal class lists across nodes share storage.
func (n *Node) cacheClasses(pool interner) {
	n.classesSet = true
	v, ok := n.Attr("class")
	if !ok || v == "" {
		return
	}
	fields := strings.Fields(v)
	for i, f := range fields {
		fields[i] = pool.InternString(f)
	}
	n.classes = fields
}

// ParseReference builds the DOM through the string Tokenizer with every
// node individually allocated. It is the reference the golden and fuzz
// tests hold the production builder (Arena) equal to; nothing else calls
// it.
func ParseReference(src string) *Node {
	return buildDOM(NewTokenizer(src))
}

func buildDOM(z *Tokenizer) *Node {
	doc := &Node{Type: DocumentNode}
	stack := []*Node{doc}
	top := func() *Node { return stack[len(stack)-1] }

	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Type {
		case TextToken:
			if tok.Data == "" {
				continue
			}
			top().Children = append(top().Children, &Node{Type: TextNode, Data: tok.Data, Parent: top()})
		case CommentToken:
			top().Children = append(top().Children, &Node{Type: CommentNode, Data: tok.Data, Parent: top()})
		case DoctypeToken:
			// Ignored: the DOM does not model doctypes.
		case SelfClosingToken:
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			el.cacheClasses(defaultIntern)
			top().Children = append(top().Children, el)
		case StartTagToken:
			if closes, ok := impliedEndTags[tok.Data]; ok {
				for len(stack) > 1 {
					t := top().Tag
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
			el := &Node{Type: ElementNode, Tag: tok.Data, Attrs: tok.Attrs, Parent: top()}
			el.cacheClasses(defaultIntern)
			top().Children = append(top().Children, el)
			stack = append(stack, el)
		case EndTagToken:
			// Pop to the nearest matching open element; ignore stray closes.
			for i := len(stack) - 1; i >= 1; i-- {
				if stack[i].Tag == tok.Data {
					stack = stack[:i]
					break
				}
			}
		}
	}
	return doc
}
