// Package htmlparse implements a small, dependency-free HTML tokenizer and
// DOM suitable for scraping vendor device manuals. It is the substrate the
// NAssim parser framework builds on (the paper's prototype used
// Beautiful-soup; we provide the equivalent capability surface: tag/class
// queries and text extraction over possibly sloppy HTML).
package htmlparse

import (
	"strings"
)

// TokenType identifies the kind of a lexical HTML token.
type TokenType int

// Token kinds produced by ByteTokenizer.
const (
	TextToken TokenType = iota
	StartTagToken
	EndTagToken
	SelfClosingToken
	CommentToken
	DoctypeToken
)

func (t TokenType) String() string {
	switch t {
	case TextToken:
		return "Text"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case SelfClosingToken:
		return "SelfClosing"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	}
	return "Unknown"
}

// Attr is a single name="value" attribute on a tag.
type Attr struct {
	Key string
	Val string
}

// Token is one lexical element of an HTML document.
type Token struct {
	Type  TokenType
	Data  string // tag name for tags, text for text/comment tokens
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it was present.
func (t *Token) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == name {
			return a.Val, true
		}
	}
	return "", false
}

// rawTextTags are elements whose content is not markup (no nested tags).
var rawTextTags = map[string]bool{"script": true, "style": true}

func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isTagNameByte(c byte) bool {
	return isTagNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// voidElements never have children and need no closing tag.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// entityTable covers the entities that occur in vendor manuals.
var entityTable = map[string]string{
	"amp": "&", "lt": "<", "gt": ">", "quot": `"`, "apos": "'",
	"nbsp": " ", "mdash": "—", "ndash": "–", "hellip": "…",
	"lsquo": "‘", "rsquo": "’", "ldquo": "“", "rdquo": "”", "copy": "©",
}

func parseNumericRef(s string) (rune, bool) {
	if s == "" {
		return 0, false
	}
	base := 10
	if s[0] == 'x' || s[0] == 'X' {
		base = 16
		s = s[1:]
		if s == "" {
			return 0, false
		}
	}
	var n int64
	for i := 0; i < len(s); i++ {
		var d int64
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			return 0, false
		}
		n = n*int64(base) + d
		if n > 0x10FFFF {
			return 0, false
		}
	}
	return rune(n), true
}

// Escape replacers are package-level: strings.Replacer builds its
// internal matcher on first use and is safe for concurrent Replace, so
// constructing one per call re-paid the build cost (and its allocation)
// for every escaped string.
var (
	escapeTextReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	escapeAttrReplacer = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
)

// EscapeText encodes text for inclusion in an HTML document.
func EscapeText(s string) string {
	return escapeTextReplacer.Replace(s)
}

// EscapeAttr encodes an attribute value for inclusion in an HTML document.
func EscapeAttr(s string) string {
	return escapeAttrReplacer.Replace(s)
}
