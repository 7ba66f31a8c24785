// Package tokenize provides the tokenizer used for two purposes in the
// study: counting tokens for the throughput and cost analyses (the paper
// reports tokens/s and dollars per 1K tokens) and producing the word and
// subword features consumed by the language-model substrate.
//
// The tokenizer approximates a BPE-style LM tokenizer: text is split into
// word and punctuation pieces, and long or rare words are further split
// into subword chunks, giving token counts close to what GPT-style
// tokenizers produce on entity-matching serialisations (~1.3 tokens per
// word on product data).
package tokenize

import (
	"strings"
	"unicode"
)

// maxPiece is the longest subword piece emitted; longer words are chunked.
// Real BPE vocabularies rarely merge beyond this length for the noisy
// product/citation text in the benchmarks.
const maxPiece = 6

// Tokenizer splits text into LM-style tokens. The zero value is not usable;
// call New.
type Tokenizer struct {
	// common holds frequent English words kept as single tokens regardless
	// of length, mirroring how BPE merges frequent words.
	common map[string]struct{}
}

// New returns a tokenizer with the default common-word vocabulary.
func New() *Tokenizer {
	t := &Tokenizer{common: make(map[string]struct{}, len(commonWords))}
	for _, w := range commonWords {
		t.common[w] = struct{}{}
	}
	return t
}

// commonWords are frequent tokens kept whole; the list covers the function
// words and domain staples that dominate the benchmark serialisations.
var commonWords = []string{
	"the", "and", "for", "with", "from", "this", "that", "entity",
	"record", "title", "name", "address", "city", "phone", "price",
	"brand", "year", "venue", "authors", "album", "artist", "genre",
	"category", "description", "version", "windows", "software",
	"restaurant", "street", "avenue", "music", "movie", "beer", "brewery",
	"black", "white", "digital", "camera", "wireless", "stainless",
	"edition", "series", "system", "pack", "inch",
}

// Words splits text into lower-cased word and punctuation units before
// subword chunking.
func (t *Tokenizer) Words(text string) []string {
	var words []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			words = append(words, cur.String())
			cur.Reset()
		}
	}
	for _, r := range strings.ToLower(text) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			flush()
			words = append(words, string(r))
		}
	}
	flush()
	return words
}

// Tokens splits text into subword tokens.
func (t *Tokenizer) Tokens(text string) []string {
	words := t.Words(text)
	toks := make([]string, 0, len(words)+len(words)/3)
	for _, w := range words {
		if _, ok := t.common[w]; ok || len(w) <= maxPiece {
			toks = append(toks, w)
			continue
		}
		// Chunk long words into maxPiece-sized subwords, prefixing
		// continuations with "##" in WordPiece style so that subword
		// identity is position-aware.
		for i := 0; i < len(w); i += maxPiece {
			end := i + maxPiece
			if end > len(w) {
				end = len(w)
			}
			piece := w[i:end]
			if i > 0 {
				piece = "##" + piece
			}
			toks = append(toks, piece)
		}
	}
	return toks
}

// Count returns the number of tokens in text; this is the unit the cost
// model bills.
func (t *Tokenizer) Count(text string) int {
	return len(t.Tokens(text))
}

// Default is a shared tokenizer instance; it is safe for concurrent use as
// the tokenizer is read-only after construction.
var Default = New()

// Count tokenizes text with the default tokenizer and returns the token
// count.
func Count(text string) int { return Default.Count(text) }
