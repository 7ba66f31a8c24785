package textsim

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// simFuncs enumerates every similarity in the package for property tests.
var simFuncs = map[string]func(a, b string) float64{
	"RatcliffObershelp": ratcliff,
	"Levenshtein":       Levenshtein,
	"Jaro":              jaroPooled,
	"JaroWinkler":       JaroWinkler,
	"TokenJaccard":      viaShared(TokenJaccardP),
	"TokenOverlap":      viaShared(TokenOverlapP),
	"QGramJaccard":      viaShared(QGramJaccardP),
	"MongeElkanSym":     viaTokens(MongeElkanSymTokens),
	"NumericSim":        NumericSim,
}

// randomString draws a short string over a small alphabet so collisions
// and overlaps actually occur.
func randomString(r *stats.RNG) string {
	n := r.Intn(12)
	alphabet := "abc 12."
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(out)
}

func TestSimilarityRangeProperty(t *testing.T) {
	rng := stats.NewRNG(99)
	for name, f := range simFuncs {
		f := f
		if err := quick.Check(func(seed uint32) bool {
			r := rng.Split(name + strconv.Itoa(int(seed%5000)))
			a, b := randomString(r), randomString(r)
			s := f(a, b)
			return s >= -1e-9 && s <= 1+1e-9 && !math.IsNaN(s)
		}, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s out of range: %v", name, err)
		}
	}
}

func TestSimilarityIdentityProperty(t *testing.T) {
	rng := stats.NewRNG(100)
	for name, f := range simFuncs {
		f := f
		if err := quick.Check(func(seed uint32) bool {
			r := rng.Split(name + "-id" + strconv.Itoa(int(seed%5000)))
			a := randomString(r)
			return f(a, a) > 1-1e-9
		}, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s identity violated: %v", name, err)
		}
	}
}

func TestSymmetricSimilarities(t *testing.T) {
	// RatcliffObershelp is intentionally absent: like Python's difflib, its
	// longest-match tie-breaking depends on argument order, so the ratio is
	// not symmetric in general.
	symmetric := []string{"Levenshtein", "Jaro", "JaroWinkler",
		"TokenJaccard", "TokenOverlap", "QGramJaccard", "MongeElkanSym", "NumericSim"}
	rng := stats.NewRNG(101)
	for _, name := range symmetric {
		f := simFuncs[name]
		if err := quick.Check(func(seed uint32) bool {
			r := rng.Split(name + "-sym" + strconv.Itoa(int(seed%5000)))
			a, b := randomString(r), randomString(r)
			return math.Abs(f(a, b)-f(b, a)) < 1e-9
		}, &quick.Config{MaxCount: 150}); err != nil {
			t.Errorf("%s not symmetric: %v", name, err)
		}
	}
}

func TestRatcliffObershelpKnownValues(t *testing.T) {
	// Values verified against Python difflib.SequenceMatcher.ratio().
	cases := []struct {
		a, b string
		want float64
	}{
		{"", "", 1},
		{"abc", "", 0},
		{"abc", "abc", 1},
		{"abcd", "bcde", 0.75},          // 2*3/8
		{"hello world", "hello", 0.625}, // 2*5/16
	}
	for _, c := range cases {
		if got := ratcliff(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("RatcliffObershelp(%q,%q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinKnownValues(t *testing.T) {
	// kitten -> sitting requires 3 edits; similarity 1 - 3/7.
	if got := Levenshtein("kitten", "sitting"); math.Abs(got-(1-3.0/7)) > 1e-9 {
		t.Errorf("Levenshtein(kitten, sitting) = %v", got)
	}
	if Levenshtein("abc", "xyz") != 0 {
		t.Error("completely different strings should score 0")
	}
}

func TestJaroWinklerPrefixBonus(t *testing.T) {
	plain := jaroPooled("martha", "marhta")
	winkler := JaroWinkler("martha", "marhta")
	if winkler <= plain {
		t.Errorf("JaroWinkler (%v) should exceed Jaro (%v) for shared prefixes", winkler, plain)
	}
	// Classic reference: Jaro(martha, marhta) ≈ 0.944, JW ≈ 0.961.
	if math.Abs(plain-0.9444) > 0.001 {
		t.Errorf("Jaro(martha, marhta) = %v, want ≈ 0.944", plain)
	}
	if math.Abs(winkler-0.9611) > 0.001 {
		t.Errorf("JaroWinkler(martha, marhta) = %v, want ≈ 0.961", winkler)
	}
}

func TestTokens(t *testing.T) {
	got := Tokens("Hello, World! price: $12.99")
	want := []string{"hello", "world", "price", "12", "99"}
	if len(got) != len(want) {
		t.Fatalf("Tokens = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Tokens = %v, want %v", got, want)
		}
	}
}

func TestTokenJaccardKnownValues(t *testing.T) {
	tj := viaShared(TokenJaccardP)
	if got := tj("a b c", "b c d"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("TokenJaccardP = %v, want 0.5", got)
	}
	if tj("", "") != 1 {
		t.Error("empty vs empty should be 1")
	}
	if tj("a", "") != 0 {
		t.Error("non-empty vs empty should be 0")
	}
}

func TestTokenOverlapSubset(t *testing.T) {
	// A subset scores a full overlap coefficient of 1.
	if got := viaShared(TokenOverlapP)("data base systems", "data base"); got != 1 {
		t.Errorf("subset overlap = %v, want 1", got)
	}
}

func TestNumericSim(t *testing.T) {
	if NumericSim("100", "100") != 1 {
		t.Error("equal numbers should be 1")
	}
	if got := NumericSim("100", "50"); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("NumericSim(100, 50) = %v, want 0.5", got)
	}
	if got := NumericSim("$12.99", "12.99"); got != 1 {
		t.Errorf("currency-symbol difference should not matter: %v", got)
	}
	if got := NumericSim("1,000", "1000"); got != 1 {
		t.Errorf("thousands separator should not matter: %v", got)
	}
	// Non-numeric falls back to string similarity.
	if got := NumericSim("abc", "abd"); got <= 0 || got >= 1 {
		t.Errorf("string fallback = %v", got)
	}
}

func TestMongeElkanAsymmetryAndSym(t *testing.T) {
	a, b := Tokens("john smith"), Tokens("smith")
	if MongeElkanTokens(b, a) != 1 {
		t.Error("every token of the subset matches perfectly")
	}
	if MongeElkanTokens(a, b) >= 1 {
		t.Error("superset direction should be below 1")
	}
	sym := MongeElkanSymTokens(a, b)
	if sym <= MongeElkanTokens(a, b)-1e-9 || sym >= MongeElkanTokens(b, a)+1e-9 {
		t.Errorf("symmetric mean %v outside directional bounds", sym)
	}
}

func TestWeighterIDF(t *testing.T) {
	w := NewWeighter()
	for i := 0; i < 100; i++ {
		w.Observe("the common word")
	}
	w.Observe("the rare identifier xk42")
	if w.IDF("the") >= w.IDF("xk42") {
		t.Errorf("common token IDF (%v) should be below rare token IDF (%v)", w.IDF("the"), w.IDF("xk42"))
	}
	if w.IDF("neverseen") < w.IDF("xk42") {
		t.Error("unseen tokens should have the maximum IDF")
	}
	if w.DocCount() != 101 {
		t.Errorf("DocCount = %d, want 101", w.DocCount())
	}
}
