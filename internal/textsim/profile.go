package textsim

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Profile is the precomputed text profile of one string: everything the
// similarity kernels need, computed once per distinct string instead of
// once per pair evaluation. A full leave-one-dataset-out study evaluates
// the same fixed records hundreds of times per matcher and seed, so the
// per-pair substrate cost collapses to merge joins over these precomputed
// sorted slices — no lowercasing, tokenizing, map building or sorting on
// the hot path.
//
// The exported fields are immutable after construction. The trigram set
// is not built with them: most profiles are read only for their tokens,
// so NumGrams, Gram and QGramJaccardP build it on first use and publish
// it with a compare-and-swap. Every accessor is safe for concurrent use,
// and a profile whose trigrams nobody reads never pays for them.
type Profile struct {
	// Raw is the original string the profile was built from.
	Raw string
	// Lower is the lowercased form (aliases Raw when already lowercase).
	Lower string
	// Tokens holds the word tokens of Lower in occurrence order, exactly
	// as Tokens(Raw) returns them.
	Tokens []string
	// Uniq holds Tokens deduplicated in first-occurrence order — the order
	// legacy map-free dedup loops produced, preserved for callers whose
	// float accumulation order matters (blocking).
	Uniq []string
	// SortedIDs holds the unique token IDs (shared interner), ascending.
	// Set-intersection kernels merge-join over this slice.
	SortedIDs []uint32
	// uniqIDs holds the ID of each token of Uniq, in Uniq's order; it
	// shares SortedIDs' backing array, so a joined profile dedups its
	// parts' tokens without the interner.
	uniqIDs []uint32
	// Num is the parsed numeric value of Raw and IsNum whether Raw parses
	// as a number (currency symbols and thousands separators tolerated).
	Num   float64
	IsNum bool

	grams atomic.Pointer[Trigrams]
}

// NumGrams returns the number of unique padded trigrams of Lower.
func (p *Profile) NumGrams() int { return p.gramSet().len() }

// Gram returns the i-th unique padded trigram of Lower in lexicographic
// order (the iteration order the encoder's character-gram features
// require). It is a substring of one shared buffer and never allocates.
func (p *Profile) Gram(i int) string { return p.gramSet().gram(i) }

// gramSet returns the profile's trigram set, building it on first use.
// Racing first users may each build one; the first to publish wins and
// the rest adopt it, so every caller sees the same set.
func (p *Profile) gramSet() *Trigrams {
	if g := p.grams.Load(); g != nil {
		return g
	}
	gramSetsBuilt.Add(1)
	g := trigramSet(p.Lower)
	if p.grams.CompareAndSwap(nil, g) {
		return g
	}
	return p.grams.Load()
}

// gramSetsBuilt counts trigram-set constructions, so tests can check
// that a token-only caller builds none.
var gramSetsBuilt atomic.Int64

// Trigrams is the unique padded trigram set of one lowercased string,
// held without a pointer per gram: the grams in byte-lexicographic order
// are concatenated into one string. A Profile builds one lazily;
// JoinedTrigrams builds one alone, for text compared only by grams.
type Trigrams struct {
	codes string
	// offs holds the start of each gram in codes plus the end of the
	// last; nil when every gram is 3 bytes (ASCII text).
	offs []uint32
}

func (g *Trigrams) len() int {
	if g.offs == nil {
		return len(g.codes) / 3
	}
	return len(g.offs) - 1
}

func (g *Trigrams) gram(i int) string {
	if g.offs == nil {
		return g.codes[3*i : 3*i+3]
	}
	return g.codes[g.offs[i]:g.offs[i+1]]
}

// HasToken reports whether the profile's token set contains the token
// with the given shared-interner ID (see Intern).
func (p *Profile) HasToken(id uint32) bool {
	ids := p.SortedIDs
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := (lo + hi) / 2
		if ids[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ids) && ids[lo] == id
}

func newProfile(s string, in *Interner) *Profile {
	p := &Profile{Raw: s, Lower: lowerString(s)}
	p.Tokens = Tokens(p.Lower)
	if n := len(p.Tokens); n > 0 {
		var stack, spare [64]uint32
		ids, sorted := stack[:0], spare[:0]
		if n > len(stack) {
			ids, sorted = make([]uint32, 0, n), make([]uint32, 0, n)
		}
		for _, t := range p.Tokens {
			ids = append(ids, in.ID(t))
		}
		sorted = append(sorted, ids...)
		slices.Sort(sorted)
		p.setIDs(slices.Compact(sorted), p.Tokens, ids)
	}
	p.Num, p.IsNum = parseNumber(s)
	return p
}

// setIDs sets SortedIDs to a copy of sorted, the ascending unique IDs of
// the profile's tokens, and fills Uniq and uniqIDs from toks and their
// IDs, in occurrence order: a token is a first occurrence when its slot
// in SortedIDs is still unmarked.
func (p *Profile) setIDs(sorted []uint32, toks []string, tokIDs []uint32) {
	k := len(sorted)
	ids := make([]uint32, 2*k)
	copy(ids, sorted)
	p.SortedIDs, p.uniqIDs = ids[:k:k], ids[k:k]
	var stack [64]bool
	seen := stack[:]
	if k > len(stack) {
		seen = make([]bool, k)
	}
	uniq := make([]string, 0, k)
	for i, t := range toks {
		slot, _ := slices.BinarySearch(p.SortedIDs, tokIDs[i])
		if seen[slot] {
			continue
		}
		seen[slot] = true
		uniq = append(uniq, t)
		p.uniqIDs = append(p.uniqIDs, tokIDs[i])
	}
	p.Uniq = uniq
}

// joinProfile builds the profile of s, the Raw strings of parts joined by
// a separator that Tokens splits at without a token of its own (such as
// ", "), from the parts' tokens and IDs instead of tokenising and
// interning s again: Tokens(s) is then the parts' tokens in order, so the
// whole profile follows from them but for Lower and the number parse,
// which read s. The result equals newProfile(s, sharedInterner) field for
// field.
func joinProfile(s string, parts []*Profile) *Profile {
	p := &Profile{Raw: s, Lower: lowerString(s)}
	n, u := 0, 0
	for _, q := range parts {
		n += len(q.Tokens)
		u += len(q.SortedIDs)
	}
	if n > 0 {
		toks := make([]string, 0, n)
		var idStack, uidStack [128]uint32
		var uniqStack [128]string
		all, uids, uniq := idStack[:0], uidStack[:0], uniqStack[:0]
		if u > len(idStack) {
			all, uids, uniq = make([]uint32, 0, u), make([]uint32, 0, u), make([]string, 0, u)
		}
		for _, q := range parts {
			toks = append(toks, q.Tokens...)
			all = append(all, q.SortedIDs...)
			uniq = append(uniq, q.Uniq...)
			uids = append(uids, q.uniqIDs...)
		}
		p.Tokens = toks
		slices.Sort(all)
		p.setIDs(slices.Compact(all), uniq, uids)
	}
	p.Num, p.IsNum = parseNumber(s)
	return p
}

// lowerString lowercases s, returning s itself when it contains no
// uppercase ASCII and no multi-byte runes (the overwhelmingly common case
// for benchmark text, which saves the allocation).
func lowerString(s string) string {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return strings.ToLower(s)
		}
	}
	return s
}

// trigramSet computes the unique padded trigrams of an already-lowercased
// string. ASCII text takes the byte kernel; text with any byte >= 0x80
// takes the rune path, which defines the result.
func trigramSet(lower string) *Trigrams {
	if isASCII(lower) {
		return trigramSetASCII(lower)
	}
	return trigramSetRunes(lower)
}

// trigramSetASCII is the byte kernel: each 3-byte window of
// "##"+lower+"##" packs big-endian into a uint32, so sorting and
// de-duplicating the integers yields the grams in lexicographic order.
func trigramSetASCII[S ~string | ~[]byte](lower S) *Trigrams {
	n := len(lower) + 2 // windows over the padded string
	var stack, spare [256]uint32
	codes, tmp := stack[:0], spare[:]
	if n > len(stack) {
		codes, tmp = make([]uint32, 0, n), make([]uint32, n)
	}
	at := func(i int) uint32 {
		if i < 2 || i >= len(lower)+2 {
			return '#'
		}
		return uint32(lower[i-2])
	}
	for i := 0; i < n; i++ {
		codes = append(codes, at(i)<<16|at(i+1)<<8|at(i+2))
	}
	if n < radixMinCodes {
		slices.Sort(codes)
	} else {
		codes = radixSortCodes(codes, tmp[:n])
	}
	codes = slices.Compact(codes)
	var b strings.Builder
	b.Grow(3 * len(codes))
	for _, c := range codes {
		b.WriteByte(byte(c >> 16))
		b.WriteByte(byte(c >> 8))
		b.WriteByte(byte(c))
	}
	return &Trigrams{codes: b.String()}
}

// radixMinCodes is the window count from which radixSortCodes beats
// slices.Sort on trigram codes: measured at about 40 on a 2-vCPU Xeon,
// 1.6x faster at 60 windows and 5x at 300.
const radixMinCodes = 48

// radixSortCodes sorts ASCII trigram codes, three 7-bit digits at bits 0,
// 8 and 16, by an LSD radix sort through tmp (len(codes) long), and
// returns whichever of the two buffers holds the sorted codes.
func radixSortCodes(codes, tmp []uint32) []uint32 {
	for shift := 0; shift < 24; shift += 8 {
		var start [128]int32
		for _, c := range codes {
			start[c>>shift&0x7f]++
		}
		var sum int32
		for d, k := range start {
			start[d] = sum
			sum += k
		}
		for _, c := range codes {
			d := c >> shift & 0x7f
			tmp[start[d]] = c
			start[d]++
		}
		codes, tmp = tmp, codes
	}
	return codes
}

// trigramSetRunes is the rune path: the trigrams of the rune slice of
// the padded string, de-duplicated through a map and sorted as strings.
func trigramSetRunes(lower string) *Trigrams {
	padded := "##" + lower + "##"
	rs := []rune(padded)
	set := make(map[string]struct{}, len(rs))
	for i := 0; i+3 <= len(rs); i++ {
		set[string(rs[i:i+3])] = struct{}{}
	}
	grams := make([]string, 0, len(set))
	for g := range set {
		grams = append(grams, g)
	}
	sort.Strings(grams)
	var b strings.Builder
	offs := make([]uint32, len(grams)+1)
	for i, g := range grams {
		offs[i] = uint32(b.Len())
		b.WriteString(g)
	}
	offs[len(grams)] = uint32(b.Len())
	return &Trigrams{codes: b.String(), offs: offs}
}

// JoinedTrigrams returns the trigram set of strings.Join(toks, " "): the
// set a Profile of that string builds, without the tokens, interner IDs
// and number parse of the rest of a Profile. Lowercase ASCII tokens are
// packed into a stack buffer instead of a joined string.
func JoinedTrigrams(toks []string) *Trigrams {
	var stack [256]byte
	buf := stack[:0]
	for i, t := range toks {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, t...)
	}
	for _, c := range buf {
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return trigramSet(lowerString(string(buf)))
		}
	}
	return trigramSetASCII(buf)
}

// The 64-bit FNV-1a parameters.
const (
	fnvOffset = 1469598103934665603
	fnvPrime  = 1099511628211
)

// fnv64a is the 64-bit FNV-1a hash of s.
func fnv64a(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// ProfileCache memoises text profiles, keyed by the exact string. Like
// record.SerializeCache it is read-mostly: a profile is built outside the
// lock, published under the write lock and then only read (its trigram
// set aside, which publishes itself), which fits the parallel evaluation
// engine's access pattern. All caches share the process-wide interner, so
// profiles from different caches remain comparable.
type ProfileCache struct {
	mu sync.RWMutex
	m  map[string]*Profile

	hits   atomic.Int64
	misses atomic.Int64
}

// NewProfileCache returns an empty cache backed by the shared interner.
func NewProfileCache() *ProfileCache {
	return &ProfileCache{m: make(map[string]*Profile)}
}

// Reserve sizes an empty cache's map for n profiles, so filling it does
// not rehash the map as it grows; a cache that holds profiles keeps its
// map.
func (c *ProfileCache) Reserve(n int) {
	c.mu.Lock()
	if len(c.m) == 0 {
		c.m = make(map[string]*Profile, n)
	}
	c.mu.Unlock()
}

// Get returns the memoised profile of s, building it on first sight.
func (c *ProfileCache) Get(s string) *Profile {
	c.mu.RLock()
	p := c.m[s]
	c.mu.RUnlock()
	if p != nil {
		c.hits.Add(1)
		return p
	}
	c.misses.Add(1)
	return c.publish(s, newProfile(s, sharedInterner))
}

// Lookup returns the memoised profile of s, or nil when s has none yet.
// A caller that can build a missing profile more cheaply than Get does
// (AddJoined) looks it up first.
func (c *ProfileCache) Lookup(s string) *Profile {
	c.mu.RLock()
	p := c.m[s]
	c.mu.RUnlock()
	if p != nil {
		c.hits.Add(1)
	}
	return p
}

// AddJoined builds the profile of s, which must be the Raw strings of
// parts joined as joinProfile requires, from the parts, and stores it
// unless a profile of s is stored already; it returns the stored
// profile, the one Get(s) would return. A caller looks s up first.
func (c *ProfileCache) AddJoined(s string, parts []*Profile) *Profile {
	c.misses.Add(1)
	return c.publish(s, joinProfile(s, parts))
}

// publish stores p as the profile of s unless a racing builder stored
// one first, and returns the stored profile.
func (c *ProfileCache) publish(s string, p *Profile) *Profile {
	c.mu.Lock()
	if q, ok := c.m[s]; ok {
		p = q
	} else {
		c.m[s] = p
	}
	c.mu.Unlock()
	return p
}

// Stats reports cumulative hit and miss counts, for benchmarks and
// capacity planning.
func (c *ProfileCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// sharedProfiles is the process-wide cache behind Shared.
var sharedProfiles = NewProfileCache()

// Shared returns the process-wide profile cache used by the matchers.
//
// Memory contract: the cache never evicts, so it holds one profile per
// distinct string any caller resolved through it, for the life of the
// process — the same contract as record.SerializeCache. A profile carries
// its trigram set only once a caller has read it, and neither
// Weighter.Observe nor ObserveJoined adds a profile, so a serialised
// record a caller only counts (a prompted model's batch under shuffled
// column orders) costs the cache nothing: lm's prompted models count it
// from the profiles of its values, which they resolve here to score the
// pair anyway.
// Fine-tuning does not resolve through it: lm's encoder observes and
// featurises its training corpus through a ProfileCache of its own,
// dropped when training ends, and only what a trained matcher scores
// lands here. Callers that need profiles only briefly should likewise
// resolve them through a ProfileCache of their own.
func Shared() *ProfileCache { return sharedProfiles }

// intersectIDs returns |a ∩ b| for two ascending unique ID slices.
func intersectIDs(a, b []uint32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersectGrams returns |a ∩ b| for two trigram sets. Both hold their
// grams in byte-lexicographic order, so the merge join compares packed
// 3-byte integers when both are ASCII and gram strings otherwise.
func intersectGrams(a, b *Trigrams) int {
	if a.offs == nil && b.offs == nil {
		return intersectCodes3(a.codes, b.codes)
	}
	na, nb := a.len(), b.len()
	n, i, j := 0, 0, 0
	for i < na && j < nb {
		ga, gb := a.gram(i), b.gram(j)
		switch {
		case ga < gb:
			i++
		case ga > gb:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// intersectCodes3 returns |a ∩ b| for two ascending runs of unique 3-byte
// codes, each read as a big-endian integer. Each side's current code is
// decoded once, when that side advances.
func intersectCodes3(a, b string) int {
	code := func(s string, i int) uint32 {
		g := s[i : i+3]
		return uint32(g[0])<<16 | uint32(g[1])<<8 | uint32(g[2])
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	n, i, j := 0, 0, 0
	ca, cb := code(a, 0), code(b, 0)
	for {
		switch {
		case ca < cb:
			if i += 3; i == len(a) {
				return n
			}
			ca = code(a, i)
		case ca > cb:
			if j += 3; j == len(b) {
				return n
			}
			cb = code(b, j)
		default:
			n++
			i += 3
			j += 3
			if i == len(a) || j == len(b) {
				return n
			}
			ca, cb = code(a, i), code(b, j)
		}
	}
}

// TokenHash is the stable 64-bit fingerprint of one token (FNV-1a).
// Unlike interner IDs — which are assigned in first-encounter order and
// therefore depend on process history and goroutine scheduling — a
// token's fingerprint is a pure function of its bytes, so draws keyed on
// it (the router's jitter, the simulated backends' call outcomes) are
// reproducible across runs and worker counts.
func TokenHash(tok string) uint64 { return fnv64a(tok) }

// TokenHashBytes is TokenHash over a byte slice: the identical FNV-1a
// fold, so hashing a []byte view of a key equals hashing the string copy.
// The fleet router keys its consistent-hash ring on it, straight off the
// pooled cache-key scratch — no string materialisation on the hot path.
func TokenHashBytes(tok []byte) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(tok); i++ {
		h ^= uint64(tok[i])
		h *= fnvPrime
	}
	return h
}

// TokenJaccardP returns the Jaccard similarity between the word-token
// sets of a and b, via a merge join over the sorted interned IDs.
func TokenJaccardP(a, b *Profile) float64 {
	na, nb := len(a.SortedIDs), len(b.SortedIDs)
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	inter := intersectIDs(a.SortedIDs, b.SortedIDs)
	return float64(inter) / float64(na+nb-inter)
}

// TokenOverlapP returns the overlap coefficient |A∩B| / min(|A|, |B|)
// between the word-token sets of a and b.
func TokenOverlapP(a, b *Profile) float64 {
	na, nb := len(a.SortedIDs), len(b.SortedIDs)
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	inter := intersectIDs(a.SortedIDs, b.SortedIDs)
	minLen := na
	if nb < minLen {
		minLen = nb
	}
	return float64(inter) / float64(minLen)
}

// QGramJaccardP returns the Jaccard similarity between the padded,
// lower-cased trigram sets of a and b (q = 3, the usual choice for entity
// matching), via a merge join over the sorted grams themselves.
func QGramJaccardP(a, b *Profile) float64 {
	return QGramJaccardT(a.gramSet(), b.gramSet())
}

// QGramJaccardT is QGramJaccardP over two trigram sets.
func QGramJaccardT(ga, gb *Trigrams) float64 {
	na, nb := ga.len(), gb.len()
	if na == 0 && nb == 0 {
		return 1
	}
	if na == 0 || nb == 0 {
		return 0
	}
	inter := intersectGrams(ga, gb)
	return float64(inter) / float64(na+nb-inter)
}

// MongeElkanTokens returns the Monge-Elkan similarity of ta against tb:
// the mean, over tokens of ta, of the best Jaro-Winkler match in tb. It is
// asymmetric; MongeElkanSymTokens is the symmetric mean. Callers pass
// cached token slices (e.g. the encoder's first-N-token feature), so no
// text is re-tokenized.
func MongeElkanTokens(ta, tb []string) float64 {
	if len(ta) == 0 {
		if len(tb) == 0 {
			return 1
		}
		return 0
	}
	if len(tb) == 0 {
		return 0
	}
	sc := seqPool.Get().(*seqScratch)
	defer seqPool.Put(sc)
	sum := 0.0
	for _, x := range ta {
		best := 0.0
		for _, y := range tb {
			if x == y {
				best = 1
				break
			}
			// Upper bound: with m matched runes, Jaro ≤ (2 + min/max)/3 and
			// Jaro-Winkler ≤ 0.6·Jaro + 0.4. A candidate that cannot beat
			// the current best even at its bound is skipped; the margin
			// absorbs float rounding so no improving candidate is ever
			// skipped.
			if jwUpperBound(x, y) < best-1e-9 {
				continue
			}
			if s := jaroWinkler(x, y, sc); s > best {
				best = s
			}
		}
		sum += best
	}
	return sum / float64(len(ta))
}

// MongeElkanSymTokens returns the symmetric Monge-Elkan similarity: the
// mean of MongeElkanTokens(ta, tb) and MongeElkanTokens(tb, ta), bit for
// bit, in one pass. JaroWinkler is symmetric, so each token pair is
// scored once and the score feeds both its row's best (the best match in
// tb of a token of ta) and its column's best. Each best is an exact
// maximum whatever the visiting order, a pair is skipped only when its
// upper bound can beat neither best, and both means sum in token order.
func MongeElkanSymTokens(ta, tb []string) float64 {
	if len(ta) == 0 || len(tb) == 0 {
		return (MongeElkanTokens(ta, tb) + MongeElkanTokens(tb, ta)) / 2
	}
	sc := seqPool.Get().(*seqScratch)
	defer seqPool.Put(sc)
	n := len(ta) + len(tb)
	if cap(sc.best) < n {
		sc.best = make([]float64, n)
	}
	rowBest, colBest := sc.best[:len(ta)], sc.best[len(ta):n]
	clear(rowBest)
	clear(colBest)
	for i, x := range ta {
		for j, y := range tb {
			if x == y {
				rowBest[i], colBest[j] = 1, 1
				continue
			}
			// As in MongeElkanTokens: the margin absorbs float rounding.
			if ub := jwUpperBound(x, y); ub < rowBest[i]-1e-9 && ub < colBest[j]-1e-9 {
				continue
			}
			s := jaroWinkler(x, y, sc)
			if s > rowBest[i] {
				rowBest[i] = s
			}
			if s > colBest[j] {
				colBest[j] = s
			}
		}
	}
	sumA, sumB := 0.0, 0.0
	for _, v := range rowBest {
		sumA += v
	}
	for _, v := range colBest {
		sumB += v
	}
	return (sumA/float64(len(ta)) + sumB/float64(len(tb))) / 2
}

// NumericSimP is the profile form of NumericSim, using the parsed numeric
// value precomputed in the profile.
func NumericSimP(a, b *Profile) float64 {
	if !a.IsNum || !b.IsNum {
		return Levenshtein(a.Raw, b.Raw)
	}
	x, y := a.Num, b.Num
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
