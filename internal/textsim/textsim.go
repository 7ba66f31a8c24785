// Package textsim implements the string-similarity functions used across
// the study: the Ratcliff/Obershelp ratio (the difflib.SequenceMatcher
// algorithm backing the paper's StringSim baseline), Levenshtein, Jaro and
// Jaro-Winkler, token and q-gram Jaccard, overlap coefficient, cosine
// TF-IDF, Monge-Elkan, and a relative numeric similarity.
//
// Every function returns a similarity in [0, 1] where 1 means identical.
//
// The string-based set and token kernels are thin wrappers over the
// profile kernels (see Profile): each argument is resolved through the
// process-wide ProfileCache, so the lowercasing, tokenization and set
// construction happen once per distinct string and the per-pair cost is a
// merge join over precomputed sorted slices. The sequence kernels
// (Levenshtein, RatcliffObershelp, Jaro) live in scratch.go and work in
// pooled scratch instead.
package textsim

import (
	"math"
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

// TokenJaccard returns the Jaccard similarity between the word-token sets
// of a and b.
func TokenJaccard(a, b string) float64 {
	return TokenJaccardP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

// TokenOverlap returns the overlap coefficient |A∩B| / min(|A|, |B|)
// between the word-token sets of a and b.
func TokenOverlap(a, b string) float64 {
	return TokenOverlapP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

// QGrams returns the multiset-deduplicated set of q-grams of s (padded
// with '#'), lower-cased. q must be positive.
func QGrams(s string, q int) map[string]struct{} {
	if q <= 0 {
		panic("textsim: QGrams with non-positive q")
	}
	padded := strings.Repeat("#", q-1) + strings.ToLower(s) + strings.Repeat("#", q-1)
	rs := []rune(padded)
	set := make(map[string]struct{})
	for i := 0; i+q <= len(rs); i++ {
		set[string(rs[i:i+q])] = struct{}{}
	}
	return set
}

// QGramJaccard returns the Jaccard similarity between the q-gram sets of a
// and b (q = 3, the usual choice for entity matching).
func QGramJaccard(a, b string) float64 {
	return QGramJaccardP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

// CosineTF returns the cosine similarity between term-frequency vectors of
// the word tokens of a and b. (IDF weighting requires corpus statistics;
// see the Weighter type for the corpus-aware variant.)
func CosineTF(a, b string) float64 {
	return CosineTFP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

func cosine(fa, fb map[string]float64) float64 {
	var dot, na, nb float64
	for t, v := range fa {
		na += v * v
		if w, ok := fb[t]; ok {
			dot += v * w
		}
	}
	for _, v := range fb {
		nb += v * v
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// MongeElkan returns the Monge-Elkan similarity of a against b: the mean,
// over tokens of a, of the best Jaro-Winkler match in b. It is asymmetric;
// use MongeElkanSym for the symmetric mean.
func MongeElkan(a, b string) float64 {
	return MongeElkanP(sharedProfiles.Get(a), sharedProfiles.Get(b))
}

// MongeElkanSym returns the symmetric Monge-Elkan similarity.
func MongeElkanSym(a, b string) float64 {
	return MongeElkanSymP(sharedProfiles.Get(a), sharedProfiles.Get(b))
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
// and thousands separators as found in the product datasets.
func parseNumber(s string) (float64, error) {
	clean := strings.TrimSpace(s)
	clean = strings.TrimLeft(clean, "$€£ ")
	clean = strings.ReplaceAll(clean, ",", "")
	return strconv.ParseFloat(clean, 64)
}
