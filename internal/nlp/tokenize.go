// Package nlp provides the natural-language machinery behind NAssim's
// Mapper (§6): tokenization, a TF-IDF information-retrieval model, dense
// sentence encoders, and the NetBERT fine-tuning procedure.
//
// The paper runs PyTorch BERT variants on a V100 GPU; that inference stack
// is unavailable here, so the encoders are simulated with deterministic
// hash-projection embeddings whose *capability tiers* mirror the real
// models' (§7.3):
//
//   - IR sees exact lexical overlap only (TF-IDF cosine);
//   - SimCSE-sim adds a partial general-English synonym vocabulary;
//   - SBERT-sim adds the full general-English synonym vocabulary plus
//     frequency-aware token weighting (its sentence-matching pretraining);
//   - NetBERT starts from SBERT-sim and learns *domain* token alignments
//     (peer/neighbor, vlan/service, ...) from expert-annotated VDM-UDM
//     pairs with 1:10 negative sampling — the domain adaptation of §6.3.
//
// Relative model quality in the paper's evaluation is driven by exactly
// these three capability tiers, so the simulated encoders reproduce the
// ordering and gaps of Tables 5/6.
package nlp

import (
	"strings"
)

// Tokenize lowercases and splits text into alphanumeric tokens. Hyphenated
// CLI identifiers split into their parts ("as-number" -> "as", "number"),
// matching how subword tokenizers expose CLI morphology to the encoder.
//
// Only ASCII letters and digits are token bytes; every other byte splits a
// token, including each byte of a multi-byte rune and invalid UTF-8. Tokens
// are substrings of s, lowercased (and so copied) only when they contain an
// upper-case letter.
func Tokenize(s string) []string {
	n := 0
	for i := 0; i < len(s); i++ {
		if isTokenByte(s[i]) && (i == 0 || !isTokenByte(s[i-1])) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	start, upper := -1, false
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isTokenByte(s[i]) {
			if start < 0 {
				start = i
			}
			if 'A' <= s[i] && s[i] <= 'Z' {
				upper = true
			}
			continue
		}
		if start >= 0 {
			tok := s[start:i]
			if upper {
				tok = strings.ToLower(tok)
			}
			out = append(out, tok)
			start, upper = -1, false
		}
	}
	return out
}

func isTokenByte(c byte) bool {
	return 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || 'A' <= c && c <= 'Z'
}

// stopwords are high-frequency function words excluded from IR scoring and
// downweighted by the SBERT-tier encoders.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "to": true, "in": true,
	"for": true, "is": true, "on": true, "and": true, "or": true, "be": true,
	"by": true, "with": true, "that": true, "this": true, "it": true,
	"its": true, "are": true, "can": true, "used": true,
}

// IsStopword reports whether a token is a function word.
func IsStopword(tok string) bool { return stopwords[tok] }
