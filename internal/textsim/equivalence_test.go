package textsim

// Equivalence tests pinning the profile-based merge-join kernels and the
// pooled sequence kernels bit-for-bit against the original map- and
// rune-slice-based implementations they replaced. The legacy code is
// duplicated here verbatim (prefixed legacy*) so any drift in the
// optimised paths fails loudly with exact float bits.

import (
	"math"
	"strconv"
	"strings"
	"unicode"
)

// ---------------------------------------------------------------------------
// Legacy implementations (pre-profile, copied from the original textsim.go)
// ---------------------------------------------------------------------------

func legacyTokens(s string) []string {
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

func legacyTokenSet(toks []string) map[string]struct{} {
	set := make(map[string]struct{}, len(toks))
	for _, t := range toks {
		set[t] = struct{}{}
	}
	return set
}

func legacySetJaccard(sa, sb map[string]struct{}) float64 {
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := legacyIntersectionSize(sa, sb)
	union := len(sa) + len(sb) - inter
	return float64(inter) / float64(union)
}

func legacyIntersectionSize(sa, sb map[string]struct{}) int {
	if len(sb) < len(sa) {
		sa, sb = sb, sa
	}
	n := 0
	for k := range sa {
		if _, ok := sb[k]; ok {
			n++
		}
	}
	return n
}

func legacyTokenJaccard(a, b string) float64 {
	return legacySetJaccard(legacyTokenSet(legacyTokens(a)), legacyTokenSet(legacyTokens(b)))
}

func legacyTokenOverlap(a, b string) float64 {
	sa, sb := legacyTokenSet(legacyTokens(a)), legacyTokenSet(legacyTokens(b))
	if len(sa) == 0 && len(sb) == 0 {
		return 1
	}
	if len(sa) == 0 || len(sb) == 0 {
		return 0
	}
	inter := legacyIntersectionSize(sa, sb)
	minLen := len(sa)
	if len(sb) < minLen {
		minLen = len(sb)
	}
	return float64(inter) / float64(minLen)
}

func legacyQGrams(s string, q int) map[string]struct{} {
	padded := strings.Repeat("#", q-1) + strings.ToLower(s) + strings.Repeat("#", q-1)
	rs := []rune(padded)
	set := make(map[string]struct{})
	for i := 0; i+q <= len(rs); i++ {
		set[string(rs[i:i+q])] = struct{}{}
	}
	return set
}

func legacyQGramJaccard(a, b string) float64 {
	return legacySetJaccard(legacyQGrams(a, 3), legacyQGrams(b, 3))
}

func legacyRatcliffObershelp(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	if a == "" || b == "" {
		return 0
	}
	ra, rb := []rune(a), []rune(b)
	m := legacyMatchedRunes(ra, rb)
	return 2 * float64(m) / float64(len(ra)+len(rb))
}

func legacyMatchedRunes(a, b []rune) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	ai, bi, size := legacyLCS(a, b)
	if size == 0 {
		return 0
	}
	return size + legacyMatchedRunes(a[:ai], b[:bi]) + legacyMatchedRunes(a[ai+size:], b[bi+size:])
}

func legacyLCS(a, b []rune) (ai, bi, size int) {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			if a[i-1] == b[j-1] {
				cur[j] = prev[j-1] + 1
				if cur[j] > size {
					size = cur[j]
					ai = i - size
					bi = j - size
				}
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return ai, bi, size
}

func legacyLevenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost
			if v := prev[j] + 1; v < m {
				m = v
			}
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	d := prev[len(rb)]
	maxLen := len(ra)
	if len(rb) > maxLen {
		maxLen = len(rb)
	}
	return 1 - float64(d)/float64(maxLen)
}

func legacyJaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	la, lb := len(ra), len(rb)
	if la == 0 && lb == 0 {
		return 1
	}
	if la == 0 || lb == 0 {
		return 0
	}
	window := la
	if lb > window {
		window = lb
	}
	window = window/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, la)
	matchB := make([]bool, lb)
	matches := 0
	for i := 0; i < la; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		hi := i + window + 1
		if hi > lb {
			hi = lb
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

func legacyJaroWinkler(a, b string) float64 {
	j := legacyJaro(a, b)
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return j + float64(prefix)*0.1*(1-j)
}

func legacyMongeElkan(a, b string) float64 {
	ta, tb := legacyTokens(a), legacyTokens(b)
	if len(ta) == 0 {
		if len(tb) == 0 {
			return 1
		}
		return 0
	}
	if len(tb) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if s := legacyJaroWinkler(x, y); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

func legacyMongeElkanSym(a, b string) float64 {
	return (legacyMongeElkan(a, b) + legacyMongeElkan(b, a)) / 2
}

func legacyNumericSim(a, b string) float64 {
	x, errA := legacyParseNumber(a)
	y, errB := legacyParseNumber(b)
	if errA != nil || errB != nil {
		return legacyLevenshtein(a, b)
	}
	if x == y {
		return 1
	}
	ax, ay := math.Abs(x), math.Abs(y)
	den := ax
	if ay > den {
		den = ay
	}
	if den == 0 {
		return 1
	}
	return math.Max(0, 1-math.Abs(x-y)/den)
}

func legacyParseNumber(s string) (float64, error) {
	clean := strings.TrimSpace(s)
	clean = strings.TrimLeft(clean, "$€£ ")
	clean = strings.ReplaceAll(clean, ",", "")
	return strconv.ParseFloat(clean, 64)
}
