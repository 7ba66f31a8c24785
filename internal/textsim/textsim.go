// Package textsim implements the string-similarity functions used across
// the study: the Ratcliff/Obershelp ratio (the difflib.SequenceMatcher
// algorithm backing the paper's StringSim baseline), Levenshtein, Jaro and
// Jaro-Winkler, token and q-gram Jaccard, overlap coefficient,
// Monge-Elkan, and a relative numeric similarity.
//
// Every function returns a similarity in [0, 1] where 1 means identical.
//
// The set and token kernels take profiles (see Profile), resolved through
// a ProfileCache, so the lowercasing, tokenization and set construction
// happen once per distinct string and the per-pair cost is a merge join
// over precomputed sorted slices. The sequence kernels (Levenshtein,
// Ratcliff/Obershelp, Jaro) live in scratch.go and work in pooled scratch
// instead.
package textsim

import (
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokens lower-cases s and splits it into alphanumeric word tokens.
// Pure-ASCII input runs byte-at-a-time, skips the lowercase copy when s is
// already lowercase, and returns substrings of a single backing string
// sized by an exact counting pass.
func Tokens(s string) []string {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return tokensUnicode(s)
		}
	}
	lower := s
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			lower = strings.ToLower(s)
			break
		}
	}
	n := 0
	inTok := false
	for i := 0; i < len(lower); i++ {
		if isASCIIAlnum(lower[i]) {
			if !inTok {
				n++
				inTok = true
			}
		} else {
			inTok = false
		}
	}
	if n == 0 {
		return nil
	}
	toks := make([]string, 0, n)
	start := -1
	for i := 0; i < len(lower); i++ {
		if isASCIIAlnum(lower[i]) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			toks = append(toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, lower[start:])
	}
	return toks
}

// isASCIIAlnum reports whether c is a lowercase ASCII letter or digit —
// exactly the runes unicode.IsLetter/IsDigit accept in the ASCII range
// after lowercasing.
func isASCIIAlnum(c byte) bool {
	return ('a' <= c && c <= 'z') || ('0' <= c && c <= '9')
}

// tokensUnicode is the general tokenizer for input containing multi-byte
// runes; it matches the ASCII fast path rune-for-rune.
func tokensUnicode(s string) []string {
	var toks []string
	var cur strings.Builder
	for _, r := range strings.ToLower(s) {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			cur.WriteRune(r)
		} else if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	if cur.Len() > 0 {
		toks = append(toks, cur.String())
	}
	return toks
}

// NumericSim parses a and b as numbers and returns a relative-difference
// similarity 1 - |a-b| / max(|a|, |b|), clamped to [0, 1]. If either value
// does not parse as a number, it falls back to Levenshtein similarity,
// which is what a type-blind matcher has to do under cross-dataset
// restriction 2.
func NumericSim(a, b string) float64 {
	return NumericSimP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

// parseNumber parses a numeric string, tolerating leading currency symbols
// and thousands separators as found in the product datasets, and reports
// whether it parsed. Text MayStartFloat rejects skips strconv.ParseFloat
// and the *NumError it would allocate.
func parseNumber(s string) (float64, bool) {
	clean := strings.TrimSpace(s)
	clean = strings.TrimLeft(clean, "$€£ ")
	// The first byte left once the commas go is the first non-comma one,
	// so text that cannot parse is refused before ReplaceAll copies it.
	if !MayStartFloat(strings.TrimLeft(clean, ",")) {
		return 0, false
	}
	clean = strings.ReplaceAll(clean, ",", "")
	v, err := strconv.ParseFloat(clean, 64)
	return v, err == nil
}

// MayStartFloat reports whether s could be accepted by
// strconv.ParseFloat judging by its first byte alone: a sign, a digit,
// '.', or the first letter of "inf", "infinity" or "nan" in either case.
// Text it rejects never parses, so a caller may skip the parse.
func MayStartFloat(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9':
		return true
	case c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
		return true
	}
	return false
}
