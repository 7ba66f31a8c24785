package textsim

import (
	"math/bits"
	"sort"
	"sync"
	"unicode/utf8"
)

// This file holds the pooled-scratch implementations of the sequence
// kernels (Levenshtein, Ratcliff/Obershelp, Jaro). Each public function
// returns bit-for-bit what the original map/slice implementation did, but
// every buffer comes from a sync.Pool. Levenshtein and Jaro keep the
// original dynamic programs and run pure-ASCII input (the overwhelmingly
// common case) directly over the string bytes instead of a []rune;
// Ratcliff/Obershelp searches a position index instead of a dense table,
// and its threshold decision first bounds the matched total by the
// bit-parallel longest common subsequence (the symbol multiset for inputs
// too large for its fixed-size table), which settles most pairs before
// the index is built.

// seqScratch bundles the reusable buffers of one kernel invocation.
type seqScratch struct {
	rowA, rowB     []int
	boolA, boolB   []bool
	runesA, runesB []rune
	// best holds the symmetric Monge-Elkan kernel's row and column bests.
	best []float64

	// Ratcliff/Obershelp only: the position index of the second
	// sequence, the rune renumbering behind it, and the pending spans.
	start, pos []int32
	ids        map[rune]rune
	stack      []span
	// The subsequence bound's per-symbol match masks over the second
	// sequence (all zero between calls) and its running bit vector.
	masks, vec []uint64
	// byteMasks marks, per byte value, the positions of a Jaro call's
	// second string of at most 64 bytes (all zero between calls).
	byteMasks [256]uint64
}

var seqPool = sync.Pool{New: func() any { return new(seqScratch) }}

// rows returns the two DP rows with at least n entries each, zeroed.
func (s *seqScratch) rows(n int) ([]int, []int) {
	if cap(s.rowA) < n {
		s.rowA = make([]int, n)
		s.rowB = make([]int, n)
	}
	a, b := s.rowA[:n], s.rowB[:n]
	for i := range a {
		a[i] = 0
		b[i] = 0
	}
	return a, b
}

// bools returns two match-flag arrays of the given lengths, zeroed.
func (s *seqScratch) bools(na, nb int) ([]bool, []bool) {
	if cap(s.boolA) < na {
		s.boolA = make([]bool, na)
	}
	if cap(s.boolB) < nb {
		s.boolB = make([]bool, nb)
	}
	a, b := s.boolA[:na], s.boolB[:nb]
	for i := range a {
		a[i] = false
	}
	for i := range b {
		b[i] = false
	}
	return a, b
}

// runes decodes a and b into the pooled rune buffers.
func (s *seqScratch) runes(a, b string) ([]rune, []rune) {
	s.runesA = appendRunes(s.runesA[:0], a)
	s.runesB = appendRunes(s.runesB[:0], b)
	return s.runesA, s.runesB
}

func appendRunes(buf []rune, s string) []rune {
	for _, r := range s {
		buf = append(buf, r)
	}
	return buf
}

// isASCII reports whether s contains only single-byte runes.
func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// ratcliffTrivial handles the empty/equal fast cases that need no scratch.
func ratcliffTrivial(a, b string) (float64, bool) {
	if a == "" && b == "" {
		return 1, true
	}
	if a == "" || b == "" {
		return 0, true
	}
	if a == b {
		return 1, true
	}
	return 0, false
}

// ratcliffRatio is the one float expression every Ratcliff/Obershelp
// result, bound and threshold test goes through; it is monotone in m.
func ratcliffRatio(m, total int) float64 { return 2 * float64(m) / float64(total) }

// Scratch is an exported handle on the pooled kernel scratch, letting
// batch-level callers (the serving dispatcher's PredictBatch path) pay
// the sync.Pool round trip once per micro-batch instead of once per pair.
// A Scratch must be released and must not be used concurrently.
type Scratch struct{ sc *seqScratch }

// AcquireScratch checks one kernel scratch out of the shared pool.
func AcquireScratch() Scratch { return Scratch{sc: seqPool.Get().(*seqScratch)} }

// Release returns the scratch to the pool.
func (s Scratch) Release() { seqPool.Put(s.sc) }

// RatcliffObershelp computes, on the held scratch, the similarity ratio
// of Python's difflib.SequenceMatcher(autojunk=False): 2*M /
// (len(a)+len(b)) where M is the total size of matched blocks found by
// recursively locating the longest matching substring. This is the
// algorithm behind the StringSim baseline in the paper (a match is
// predicted when the ratio exceeds 0.5).
//
// difflib's default, autojunk=True, also drops from the index every
// element that occurs more than 1 + n/100 times in a second sequence of
// n ≥ 200; that heuristic is not implemented. It is not a corner case
// here: 12.8 % of the benchmark pool's 85,568 labelled pairs have a
// serialised right record of 200 bytes or more (the longest is 332), and
// on those Python's default can return a different, usually lower, ratio.
// The study's goldens pin the junk-free one.
func (s Scratch) RatcliffObershelp(a, b string) float64 {
	if r, done := ratcliffTrivial(a, b); done {
		return r
	}
	sa, sb, nsym := s.sc.symbols(a, b)
	return ratcliffRatio(s.sc.matched(sa, sb, nsym, 0), len(sa)+len(sb))
}

// RatcliffExceeds reports RatcliffObershelp(a, b) > t without finishing
// the ratio: t becomes the smallest matched total whose ratio exceeds it
// (found through ratcliffRatio itself, so the two agree to the bit, and
// out of reach for NaN and t ≥ 1), totalBound — in practice the longest
// common subsequence — answers the pairs that cannot reach it before any
// position index is built, and the block search stops as soon as the
// total is reached or the unsearched spans can no longer supply it.
func (s Scratch) RatcliffExceeds(a, b string, t float64) bool {
	if r, done := ratcliffTrivial(a, b); done {
		return r > t
	}
	sa, sb, nsym := s.sc.symbols(a, b)
	bound, total := s.sc.totalBound(sa, sb, nsym), len(sa)+len(sb)
	need := sort.Search(bound+1, func(m int) bool { return ratcliffRatio(m, total) > t })
	switch {
	case need == 0: // t < 0
		return true
	case need > bound:
		return false
	}
	return s.sc.matched(sa, sb, nsym, need) >= need
}

// RatcliffUpperBound returns an upper bound on RatcliffObershelp(a, b),
// the ratio of totalBound: in O(|a|·⌈|b|/64⌉) the two sequences' longest
// common subsequence, and past totalBound's budget their symbol-multiset
// intersection. The bound is exact in float64 (integer numerators over a
// shared denominator, and division is monotone), so bound ≤ t implies
// RatcliffObershelp(a, b) ≤ t: it is the test RatcliffExceeds applies
// before it searches for any block.
func RatcliffUpperBound(a, b string) float64 {
	if r, done := ratcliffTrivial(a, b); done {
		return r
	}
	sc := seqPool.Get().(*seqScratch)
	defer seqPool.Put(sc)
	sa, sb, nsym := sc.symbols(a, b)
	return ratcliffRatio(sc.totalBound(sa, sb, nsym), len(sa)+len(sb))
}

// subseqWords caps the words of b one step of the subsequence bound
// covers, and so its cost per symbol of a (b of at most 4,096 symbols).
const subseqWords = 64

// totalBound returns an upper bound on the matched total of the symbol
// sequences a and b (symbols below nsym). The matching blocks are
// disjoint and in the same order in both sequences, so together they form
// a common subsequence, and the bound is the longest one's length — as
// long as b spans at most subseqWords words and the mask table is no
// larger than ASCII's at that width (64 KiB). Past that budget, where the
// table would grow with |b|² for b of many distinct runes and the work
// with |a|·|b|, it is the size of the symbol-multiset intersection, which
// every common subsequence fits in, in O(|a|+|b|+nsym).
func (s *seqScratch) totalBound(a, b []rune, nsym int) int {
	if w := (len(b) + 63) / 64; w <= subseqWords && nsym*w <= utf8.RuneSelf*subseqWords {
		return s.subseqLen(a, b, nsym)
	}
	return s.commonSymbols(a, b, nsym)
}

// commonSymbols returns the size of the intersection of the symbol
// multisets of a and b. The position index's start slots serve as the
// per-symbol counts; index rebuilds them if the block search runs.
func (s *seqScratch) commonSymbols(a, b []rune, nsym int) int {
	s.start = resized(s.start, nsym)
	left := s.start
	clear(left)
	for _, c := range b {
		left[c]++
	}
	n := 0
	for _, c := range a {
		if left[c] > 0 {
			left[c]--
			n++
		}
	}
	return n
}

// subseqLen returns the length of the longest common subsequence (not
// substring) of the symbol sequences a and b, whose symbols lie below
// nsym, by the bit-parallel method of Allison–Dix and Hyyrö: after a
// prefix of a, the zero bits of the running vector v mark the positions
// of b at which the LCS of that prefix and b's prefix grows by one, so
// their count is the length. Each symbol of a costs one and, one
// add-with-carry, one and-not and one or per 64 symbols of b.
// The nsym·⌈|b|/64⌉ per-symbol match masks live in the scratch, and only
// the words b set are cleared afterwards, so they are all zero between
// calls; totalBound keeps the table small.
func (s *seqScratch) subseqLen(a, b []rune, nsym int) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	w := (len(b) + 63) / 64
	s.masks = resized(s.masks, nsym*w)
	masks := s.masks
	for j, c := range b {
		masks[int(c)*w+j/64] |= 1 << (j % 64)
	}
	s.vec = resized(s.vec, w)
	v := s.vec
	for k := range v {
		v[k] = ^uint64(0)
	}
	for _, c := range a {
		m := masks[int(c)*w : int(c)*w+w]
		var carry uint64
		for k, vk := range v {
			u := vk & m[k]
			var sum uint64
			sum, carry = bits.Add64(vk, u, carry)
			v[k] = sum | vk&^m[k]
		}
	}
	// Bits past len(b) match nothing, so they stay set.
	n := 0
	for _, vk := range v {
		n += bits.OnesCount64(^vk)
	}
	for j, c := range b {
		masks[int(c)*w+j/64] = 0
	}
	return n
}

// span is one pending sub-problem of the block recursion: a[alo:ahi]
// against b[blo:bhi].
type span struct{ alo, ahi, blo, bhi int }

// reach is the most symbols the blocks of sp can total.
func (sp span) reach() int { return min(sp.ahi-sp.alo, sp.bhi-sp.blo) }

// matched returns the total size of the matching blocks of the symbol
// sequences a and b (symbols below nsym) under the Ratcliff/Obershelp
// recursion. With need > 0 it may stop early, returning a total ≥ need
// as soon as one is reached and one < need as soon as the pending spans
// cannot reach it.
func (s *seqScratch) matched(a, b []rune, nsym, need int) (m int) {
	s.index(b, nsym)
	pending := span{0, len(a), 0, len(b)}
	s.stack = append(s.stack[:0], pending)
	reach := pending.reach()
	for len(s.stack) > 0 && (need == 0 || m < need && m+reach >= need) {
		sp := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		reach -= sp.reach()
		ai, bi, size := s.longest(a, b, sp)
		if size == 0 {
			continue
		}
		m += size
		for _, sub := range [2]span{{sp.alo, ai, sp.blo, bi}, {ai + size, sp.ahi, bi + size, sp.bhi}} {
			if r := sub.reach(); r > 0 {
				s.stack = append(s.stack, sub)
				reach += r
			}
		}
	}
	return m
}

// symbols decodes a and b into the pooled rune buffers as symbols below
// nsym. ASCII keeps its code points; any other input is renumbered
// densely by first occurrence in b, with one extra symbol, nsym-1, for
// every rune of a that b lacks.
func (s *seqScratch) symbols(a, b string) (sa, sb []rune, nsym int) {
	if isASCII(a) && isASCII(b) {
		s.runesA, s.runesB = widen(s.runesA, a), widen(s.runesB, b)
		return s.runesA, s.runesB, utf8.RuneSelf
	}
	sa, sb = s.runes(a, b)
	if s.ids == nil {
		s.ids = make(map[rune]rune)
	}
	clear(s.ids)
	for j, r := range sb {
		id, ok := s.ids[r]
		if !ok {
			id = rune(len(s.ids))
			s.ids[r] = id
		}
		sb[j] = id
	}
	nsym = len(s.ids) + 1
	for i, r := range sa {
		id, ok := s.ids[r]
		if !ok {
			id = rune(nsym - 1)
		}
		sa[i] = id
	}
	return sa, sb, nsym
}

// widen returns buf holding the bytes of the ASCII string s as runes.
func widen(buf []rune, s string) []rune {
	buf = resized(buf, len(s))
	for i := range buf {
		buf[i] = rune(s[i])
	}
	return buf
}

// index builds the position index over the symbol sequence b:
// start[c]..start[c+1] bounds the increasing positions of symbol c in
// pos (difflib's b2j, by counting sort).
func (s *seqScratch) index(b []rune, nsym int) {
	// Counts land two slots up, so that after the running sum slot c+1
	// is where symbol c's positions begin, and after the fill has
	// advanced it to their end, slot c is.
	s.start, s.pos = resized(s.start, nsym+2), resized(s.pos, len(b))
	start := s.start
	clear(start)
	for _, c := range b {
		start[c+2]++
	}
	for c := 1; c < len(start); c++ {
		start[c] += start[c-1]
	}
	for j, c := range b {
		s.pos[start[c+1]] = int32(j)
		start[c+1]++
	}
}

// resized returns buf with length n, reallocated with headroom when its
// capacity falls short; the contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, 2*n)
	}
	return buf[:n]
}

// longest finds the longest common contiguous run of a and b inside sp,
// returning its start in a, start in b, and length; ties resolve to the
// earliest start in a, then in b, as difflib's find_longest_match does.
// Only matching cells are visited: each occurrence in b of the row's
// symbol is extended along its diagonal in both directions. Once row i
// is done every run crossing it has been measured, and a run lying wholly
// after it loses every tie to the best so far, so it matters only if it
// is strictly longer — and no such run fits above row i+best+1, the next
// one visited.
func (s *seqScratch) longest(a, b []rune, sp span) (ai, bi, best int) {
	for i := sp.alo; i < sp.ahi; i += best + 1 {
		for _, p := range s.pos[s.start[a[i]]:s.start[a[i]+1]] {
			j := int(p)
			if j < sp.blo {
				continue
			}
			if j >= sp.bhi {
				break
			}
			lo, k := i, j
			for lo > sp.alo && k > sp.blo && a[lo-1] == b[k-1] {
				lo, k = lo-1, k-1
			}
			hi, l := i+1, j+1
			for hi < sp.ahi && l < sp.bhi && a[hi] == b[l] {
				hi, l = hi+1, l+1
			}
			if size := hi - lo; size > best || size == best && (lo < ai || lo == ai && k < bi) {
				ai, bi, best = lo, k, size
			}
		}
	}
	return ai, bi, best
}

// Levenshtein returns a normalised edit-distance similarity:
// 1 - dist/max(len(a), len(b)).
func Levenshtein(a, b string) float64 {
	if a == b {
		return 1
	}
	if a == "" || b == "" {
		return 0
	}
	sc := seqPool.Get().(*seqScratch)
	var d, maxLen int
	if isASCII(a) && isASCII(b) {
		d = levDistBytes(a, b, sc)
		maxLen = len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
	} else {
		ra, rb := sc.runes(a, b)
		d = levDistRunes(ra, rb, sc)
		maxLen = len(ra)
		if len(rb) > maxLen {
			maxLen = len(rb)
		}
	}
	seqPool.Put(sc)
	return 1 - float64(d)/float64(maxLen)
}

func levDistBytes(a, b string, sc *seqScratch) int {
	prev, cur := sc.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost // substitution
			if v := prev[j] + 1; v < m {
				m = v // deletion
			}
			if v := cur[j-1] + 1; v < m {
				m = v // insertion
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func levDistRunes(a, b []rune, sc *seqScratch) int {
	prev, cur := sc.rows(len(b) + 1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
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
	return prev[len(b)]
}

// jaro returns the Jaro similarity between a and b, on a held scratch.
func jaro(a, b string, sc *seqScratch) float64 {
	if isASCII(a) && isASCII(b) {
		return jaroBytes(a, b, sc)
	}
	ra, rb := sc.runes(a, b)
	return jaroRunes(ra, rb, sc)
}

func jaroBytes(a, b string, sc *seqScratch) float64 {
	la, lb := len(a), len(b)
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
	var matches, transpositions int
	if la <= 64 && lb <= 64 {
		matches, transpositions = jaroMatchWords(a, b, window, &sc.byteMasks)
	} else {
		matches, transpositions = jaroMatchScan(a, b, window, sc)
	}
	if matches == 0 {
		return 0
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// jaroMatchScan matches each byte of a, in order, to the first unmatched
// equal byte of b within the window, and counts the matches and the
// matched pairs, in order, that differ.
func jaroMatchScan(a, b string, window int, sc *seqScratch) (matches, transpositions int) {
	la, lb := len(a), len(b)
	matchA, matchB := sc.bools(la, lb)
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
			if !matchB[j] && a[i] == b[j] {
				matchA[i] = true
				matchB[j] = true
				matches++
				break
			}
		}
	}
	j := 0
	for i := 0; i < la; i++ {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	return matches, transpositions
}

// jaroMatchWords is jaroMatchScan for a and b of at most 64 bytes, with
// the matched positions held as bits: masks[c] marks where b holds c
// (all zero between calls), so the first unmatched equal byte within the
// window is the lowest bit of one AND, not a scan of the window. It is
// the only form that runs on tokens this short; longer ones take the
// scan.
func jaroMatchWords(a, b string, window int, masks *[256]uint64) (matches, transpositions int) {
	la, lb := len(a), len(b)
	for j := 0; j < lb; j++ {
		masks[b[j]] |= 1 << j
	}
	var matchA, matchB uint64
	for i := 0; i < la; i++ {
		lo := max(i-window, 0)
		hi := min(i+window+1, lb)
		if lo >= hi {
			continue
		}
		win := ^uint64(0) >> (64 - (hi - lo)) << lo
		if c := masks[a[i]] &^ matchB & win; c != 0 {
			matchB |= c & -c
			matchA |= 1 << i
			matches++
		}
	}
	for j := 0; j < lb; j++ {
		masks[b[j]] = 0
	}
	for x, y := matchA, matchB; x != 0; x, y = x&(x-1), y&(y-1) {
		if a[bits.TrailingZeros64(x)] != b[bits.TrailingZeros64(y)] {
			transpositions++
		}
	}
	return matches, transpositions
}

func jaroRunes(a, b []rune, sc *seqScratch) float64 {
	la, lb := len(a), len(b)
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
	matchA, matchB := sc.bools(la, lb)
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
			if !matchB[j] && a[i] == b[j] {
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
		if a[i] != b[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	t := float64(transpositions) / 2
	return (m/float64(la) + m/float64(lb) + (m-t)/m) / 3
}

// JaroWinkler returns the Jaro-Winkler similarity with the standard prefix
// scale of 0.1 and a maximum prefix length of 4.
func JaroWinkler(a, b string) float64 {
	sc := seqPool.Get().(*seqScratch)
	s := jaroWinkler(a, b, sc)
	seqPool.Put(sc)
	return s
}

// jaroWinkler is JaroWinkler on a held scratch.
func jaroWinkler(a, b string, sc *seqScratch) float64 {
	j := jaro(a, b, sc)
	prefix := 0
	rest := b
	for _, r := range a {
		if prefix >= 4 || len(rest) == 0 {
			break
		}
		r2, sz := utf8.DecodeRuneInString(rest)
		if r != r2 {
			break
		}
		prefix++
		rest = rest[sz:]
	}
	return j + float64(prefix)*0.1*(1-j)
}

// jwUpperBound returns an upper bound on JaroWinkler(x, y) from the two
// token lengths alone: with m matched runes, m ≤ min(|x|, |y|), so
// Jaro ≤ (2 + min/max)/3, and the Winkler prefix bonus maps j to at most
// 0.6·j + 0.4.
func jwUpperBound(x, y string) float64 {
	lx, ly := len(x), len(y)
	if !isASCII(x) {
		lx = utf8.RuneCountInString(x)
	}
	if !isASCII(y) {
		ly = utf8.RuneCountInString(y)
	}
	if lx == 0 || ly == 0 {
		if lx == 0 && ly == 0 {
			return 1
		}
		return 0
	}
	minL, maxL := lx, ly
	if minL > maxL {
		minL, maxL = maxL, minL
	}
	jaroUB := (2 + float64(minL)/float64(maxL)) / 3
	return 0.6*jaroUB + 0.4
}
