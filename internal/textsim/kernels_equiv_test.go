package textsim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
)

// equivCorpus exercises every edge the profile pipeline special-cases:
// empty and whitespace-only strings, strings shorter than the q-gram
// width (padding edges), the literal pad character, mixed-case vs
// already-lowercase ASCII (the Tokens fast path), non-ASCII text (the
// unicode fallback), currency and thousands-separated numbers (the
// NumericSim parse path), repeated tokens (term frequencies), and long
// token runs (the Monge-Elkan early-exit bounds).
var equivCorpus = []string{
	"",
	" ",
	"  spaced   out  ",
	"\ttabs\nand newlines\r\n",
	"a",
	"ab",
	"abc",
	"#",
	"###",
	"#a#",
	"hello world",
	"Hello, World!",
	"HELLO WORLD",
	"hello world 123",
	"the the the cat",
	"cat cat dog",
	"iPhone 12 Pro Max 128GB",
	"iphone 12 pro max 256gb",
	"v1.2.3",
	"café au lait",
	"Café Au Lait",
	"naïve résumé — déjà vu",
	"北京大学",
	"北京 大学 计算机",
	"ÅNGSTRÖM Über straße",
	"ñandú 🙂 emoji 🙂",
	"$99.00",
	"$99",
	"€1,234.56",
	"£ 42",
	"1,234",
	"1234",
	"3.14159",
	"-17",
	"0",
	"00",
	"1e3",
	"12 items",
	"!!!",
	"—–…",
	"Sony WH-1000XM4 Wireless Noise Cancelling Overhead Headphones with Mic",
	"sony wh 1000xm4 wireless noise canceling headphones black with microphone",
	"Samsung Galaxy S21 Ultra 5G Factory Unlocked Android Cell Phone 128GB",
}

// viaShared lifts a profile kernel to strings the way the matchers call
// it: each argument resolved through the shared profile cache.
func viaShared(k func(a, b *Profile) float64) func(a, b string) float64 {
	return func(a, b string) float64 { return k(sharedProfiles.Get(a), sharedProfiles.Get(b)) }
}

// viaTokens lifts a token-slice kernel to strings over the shared
// profiles' tokens, as the encoder calls it.
func viaTokens(k func(ta, tb []string) float64) func(a, b string) float64 {
	return func(a, b string) float64 { return k(sharedProfiles.Get(a).Tokens, sharedProfiles.Get(b).Tokens) }
}

// ratcliff is Scratch.RatcliffObershelp on a scratch of its own.
func ratcliff(a, b string) float64 {
	sc := AcquireScratch()
	defer sc.Release()
	return sc.RatcliffObershelp(a, b)
}

// jaroPooled is jaro on a pooled scratch.
func jaroPooled(a, b string) float64 {
	sc := seqPool.Get().(*seqScratch)
	defer seqPool.Put(sc)
	return jaro(a, b, sc)
}

// eq asserts exact bit equality of two float64s.
func eq(t *testing.T, name, a, b string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s(%q, %q) = %v (bits %x), legacy = %v (bits %x)",
			name, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestProfileKernelEquivalence(t *testing.T) {
	kernels := []struct {
		name      string
		got, want func(a, b string) float64
	}{
		{"TokenJaccardP", viaShared(TokenJaccardP), legacyTokenJaccard},
		{"TokenOverlapP", viaShared(TokenOverlapP), legacyTokenOverlap},
		{"QGramJaccardP", viaShared(QGramJaccardP), legacyQGramJaccard},
		{"MongeElkanTokens", viaTokens(MongeElkanTokens), legacyMongeElkan},
		{"MongeElkanSymTokens", viaTokens(MongeElkanSymTokens), legacyMongeElkanSym},
		{"NumericSim", NumericSim, legacyNumericSim},
	}
	for _, a := range equivCorpus {
		for _, b := range equivCorpus {
			for _, k := range kernels {
				eq(t, k.name, a, b, k.got(a, b), k.want(a, b))
			}
		}
	}
}

func TestSequenceKernelEquivalence(t *testing.T) {
	kernels := []struct {
		name      string
		got, want func(a, b string) float64
	}{
		{"RatcliffObershelp", ratcliff, legacyRatcliffObershelp},
		{"Levenshtein", Levenshtein, legacyLevenshtein},
		{"Jaro", jaroPooled, legacyJaro},
		{"JaroWinkler", JaroWinkler, legacyJaroWinkler},
	}
	for _, a := range equivCorpus {
		for _, b := range equivCorpus {
			for _, k := range kernels {
				eq(t, k.name, a, b, k.got(a, b), k.want(a, b))
			}
		}
	}
}

func TestTokensEquivalence(t *testing.T) {
	for _, s := range equivCorpus {
		got, want := Tokens(s), legacyTokens(s)
		if len(got) != len(want) {
			t.Errorf("Tokens(%q) = %q, legacy = %q", s, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("Tokens(%q)[%d] = %q, legacy = %q", s, i, got[i], want[i])
			}
		}
	}
}

// checkRatcliff compares every Ratcliff/Obershelp entry point against the
// dense-table reference on one input: the ratio bit for bit, the shared
// bound (RatcliffExceeds answers from it without searching, so a bound
// below the ratio anywhere would change predictions), the subsequence
// length behind that bound against a dynamic program and between the
// matched total and the symbol-multiset intersection, the multiset count
// the bound falls back to on large input against a map, and the decision at
// t, at the ratio itself and at its two float64 neighbours — where a
// matched total derived from anything but the ratio's own expression
// would disagree.
func checkRatcliff(t *testing.T, sc Scratch, a, b string, thresholds ...float64) {
	t.Helper()
	want, m := legacyRatcliff(a, b)
	eq(t, "Scratch.RatcliffObershelp", a, b, sc.RatcliffObershelp(a, b), want)
	if bound := RatcliffUpperBound(a, b); bound < want {
		t.Errorf("RatcliffUpperBound(%q, %q) = %v < actual ratio %v", a, b, bound, want)
	}
	ra, rb := []rune(a), []rune(b)
	sa, sb, nsym := sc.sc.symbols(a, b)
	lcs := sc.sc.subseqLen(sa, sb, nsym)
	if ref := dpSubseqLen(ra, rb); lcs != ref {
		t.Errorf("subseqLen(%q, %q) = %d, dynamic program %d", a, b, lcs, ref)
	}
	inter := multisetIntersection(ra, rb)
	if m > lcs || lcs > inter {
		t.Errorf("(%q, %q): matched %d ≤ subsequence %d ≤ multiset intersection %d fails", a, b, m, lcs, inter)
	}
	if got := sc.sc.commonSymbols(sa, sb, nsym); got != inter {
		t.Errorf("commonSymbols(%q, %q) = %d, multiset intersection %d", a, b, got, inter)
	}
	thresholds = append(thresholds, want, math.Nextafter(want, -1), math.Nextafter(want, 2))
	for _, th := range thresholds {
		if got := sc.RatcliffExceeds(a, b, th); got != (want > th) {
			t.Errorf("RatcliffExceeds(%q, %q, %v) = %v, legacy ratio %v", a, b, th, got, want)
		}
	}
}

// dpSubseqLen is the longest common subsequence of a and b by the
// textbook O(|a|·|b|) dynamic program: the reference subseqLen is held to.
func dpSubseqLen(a, b []rune) int {
	// row[j] is the LCS of the prefix of a read so far and b[:j].
	row := make([]int32, len(b)+1)
	for _, ca := range a {
		var diag int32 // row[j] before this symbol of a
		for j, cb := range b {
			up := row[j+1]
			if ca == cb {
				row[j+1] = diag + 1
			} else if row[j] > up {
				row[j+1] = row[j]
			}
			diag = up
		}
	}
	return int(row[len(b)])
}

// multisetIntersection is the size of the intersection of the rune
// multisets of a and b, which the subsequence never exceeds: the
// reference commonSymbols is held to.
func multisetIntersection(a, b []rune) int {
	left := make(map[rune]int, len(a))
	for _, r := range a {
		left[r]++
	}
	n := 0
	for _, r := range b {
		if left[r] > 0 {
			left[r]--
			n++
		}
	}
	return n
}

// TestRatcliffUpperBoundSound runs checkRatcliff over the corpus at the
// thresholds matchers use and at the ones that must terminate without
// one: below zero, at and above one, infinite and NaN.
func TestRatcliffUpperBoundSound(t *testing.T) {
	sc := AcquireScratch()
	defer sc.Release()
	for _, a := range equivCorpus {
		for _, b := range equivCorpus {
			checkRatcliff(t, sc, a, b, 0.3, 0.5, 0.7, -1, math.Copysign(0, -1), 0, 1, 1.5,
				math.Inf(-1), math.Inf(1), math.NaN())
		}
	}
}

// TestRatcliffBoundLargeAlphabet runs the decision on a pair of 20,000
// distinct runes each, sharing the last half of a as the first half of
// b. A mask table over b's alphabet would take 20,001·313 words (50 MB);
// past its budget the bound falls back to the multiset count, and the
// scratch stays linear in the input.
func TestRatcliffBoundLargeAlphabet(t *testing.T) {
	const n = 20000
	seq := make([]rune, 3*n/2)
	for i := range seq {
		seq[i] = 0x10000 + rune(i)
	}
	a, b := string(seq[:n]), string(seq[n/2:])
	sc := Scratch{sc: new(seqScratch)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The ratio is exactly 2·(n/2)/(2n) = 0.5.
	for th, want := range map[float64]bool{0.4: true, math.Nextafter(0.5, 0): true, 0.5: false, 0.7: false} {
		if got := sc.RatcliffExceeds(a, b, th); got != want {
			t.Errorf("RatcliffExceeds(t=%v) = %v, want %v", th, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	if got := sc.RatcliffObershelp(a, b); got != 0.5 {
		t.Errorf("RatcliffObershelp = %v, want 0.5", got)
	}
	if got := RatcliffUpperBound(a, b); got != 0.5 {
		t.Errorf("RatcliffUpperBound = %v, want the multiset bound 0.5", got)
	}
	if c := cap(sc.sc.masks); c > 0 {
		t.Errorf("mask table holds %d words, want none past the budget", c)
	}
	// Runes, id map, counts and position index: well under 64 B a symbol.
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*2*n); grew > limit {
		t.Errorf("decisions allocated %d bytes, want ≤ %d (linear in the input)", grew, limit)
	}
}

// longRecords are two serialised records past difflib's 200-element
// autojunk line, where the position index has its fullest buckets.
var longRecords = [2]string{
	"Sony WH-1000XM4 Wireless Industry Leading Noise Canceling Overhead Headphones with Mic for Phone-Call and Alexa Voice Control, Black, Sony Electronics Inc., 348.00, B0863TXGM3, Over-Ear, Bluetooth 5.0, 30 hours battery life, Touch Sensor controls",
	"sony wh1000xm4/b premium noise cancelling wireless over-the-ear headphones with built in microphone black, sony, $349.99, model WH1000XM4/B, bluetooth, up to 30 hrs battery, quick attention mode, speak-to-chat, wearing detection, multipoint",
}

// FuzzRatcliffEquivalence holds the indexed kernel, its decision-only
// form and the shared bound to the dense-table reference on arbitrary
// input, invalid UTF-8 included.
func FuzzRatcliffEquivalence(f *testing.F) {
	for i, a := range equivCorpus {
		f.Add(a, equivCorpus[(i+7)%len(equivCorpus)], 0.5)
	}
	f.Add(longRecords[0], longRecords[1], 0.5)
	f.Add(longRecords[1], longRecords[0]+" ñandú", 0.3)
	f.Fuzz(func(t *testing.T, a, b string, th float64) {
		sc := AcquireScratch()
		defer sc.Release()
		checkRatcliff(t, sc, a, b, th)
	})
}

// TestProfileIdempotent verifies a cache hit returns the identical
// profile pointer, and that kernels are insensitive to which cache built
// the profile (the interner is shared process-wide).
func TestProfileIdempotent(t *testing.T) {
	c := NewProfileCache()
	for _, s := range equivCorpus {
		p1 := c.Get(s)
		p2 := c.Get(s)
		if p1 != p2 {
			t.Fatalf("cache returned distinct profiles for %q", s)
		}
	}
	other := NewProfileCache()
	for _, a := range equivCorpus {
		for _, b := range equivCorpus {
			got := TokenJaccardP(c.Get(a), other.Get(b))
			want := TokenJaccardP(sharedProfiles.Get(a), sharedProfiles.Get(b))
			eq(t, "TokenJaccardP(cross-cache)", a, b, got, want)
		}
	}
}

// TestProfileCacheConcurrent hammers one ProfileCache and the shared
// Interner from many goroutines; run under -race this pins the
// double-checked locking in both.
func TestProfileCacheConcurrent(t *testing.T) {
	c := NewProfileCache()
	in := NewInterner()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := equivCorpus[(w+i)%len(equivCorpus)]
				p := c.Get(s)
				if p.Raw != s {
					t.Errorf("profile raw mismatch: %q != %q", p.Raw, s)
					return
				}
				// Interleave kernel calls so concurrent readers touch
				// the profiles while other goroutines insert.
				q := c.Get(equivCorpus[i%len(equivCorpus)])
				_ = TokenJaccardP(p, q)
				_ = QGramJaccardP(p, q)

				tok := fmt.Sprintf("tok-%d", i%64)
				id := in.ID(tok)
				if got := in.String(id); got != tok {
					t.Errorf("interner round-trip: ID(%q)=%d -> String=%q", tok, id, got)
					return
				}
				if id2 := in.ID(tok); id2 != id {
					t.Errorf("interner re-intern: %q -> %d, want %d", tok, id2, id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if len(c.m) != len(equivCorpus) {
		t.Errorf("cache has %d entries, want %d", len(c.m), len(equivCorpus))
	}
}

// TestWeighterSnapshotConcurrent pins the copy-on-observe snapshot
// sharing: concurrent snapshots of a frozen base plus independent
// Observe calls on the children must not race or cross-contaminate.
func TestWeighterSnapshotConcurrent(t *testing.T) {
	base := NewWeighter()
	for _, s := range equivCorpus {
		base.Observe(s)
	}
	frozen := base.Snapshot() // freezes base; children copy on first Observe
	wantIDF := frozen.IDF("hello")

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := frozen.Snapshot()
			for i := 0; i < 50; i++ {
				child.Observe(fmt.Sprintf("private token %d %d", w, i))
			}
			if child.DocCount() != frozen.DocCount()+50 {
				t.Errorf("child doc count %d, want %d", child.DocCount(), frozen.DocCount()+50)
			}
		}(w)
	}
	wg.Wait()
	if got := frozen.IDF("hello"); got != wantIDF {
		t.Errorf("frozen base IDF drifted: %v -> %v", wantIDF, got)
	}
	if frozen.DocCount() != len(equivCorpus) {
		t.Errorf("frozen base observed children's documents: DocCount=%d", frozen.DocCount())
	}
}

// TestJaroWordsMatchLegacy holds Jaro to the legacy kernel on random
// ASCII strings over a four-letter alphabet, so matches and
// transpositions are dense, at every length pair from 0 to 70: both
// sides of the 64-byte cut where the bit-parallel matcher hands over to
// the scan.
func TestJaroWordsMatchLegacy(t *testing.T) {
	rng := uint64(7)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	str := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = "abcd"[next()%4]
		}
		return string(b)
	}
	for la := 0; la <= 70; la++ {
		for lb := 0; lb <= 70; lb++ {
			for k := 0; k < 3; k++ {
				a, b := str(la), str(lb)
				eq(t, "Jaro", a, b, jaroPooled(a, b), legacyJaro(a, b))
				eq(t, "JaroWinkler", a, b, JaroWinkler(a, b), legacyJaroWinkler(a, b))
			}
		}
	}
}
