package textsim

import (
	"math"
	"slices"
	"strconv"
	"testing"
)

// TestFNVInjectiveASCIITrigrams checks every 3-byte string of ASCII bytes
// for an FNV-1a collision. There is none, so counting shared trigrams by
// their codes counts exactly what a join over their FNV-1a hashes counts.
func TestFNVInjectiveASCIITrigrams(t *testing.T) {
	hs := make([]uint64, 0, 1<<21)
	for c := uint32(0); c < 1<<21; c++ {
		b := [3]byte{byte(c >> 14), byte(c>>7) & 0x7f, byte(c) & 0x7f}
		hs = append(hs, fnv64a(string(b[:])))
	}
	slices.Sort(hs)
	for i := 1; i < len(hs); i++ {
		if hs[i] == hs[i-1] {
			t.Fatalf("two ASCII trigrams share FNV-1a hash %x", hs[i])
		}
	}
}

// monge2 is the two-pass definition of the symmetric Monge-Elkan score:
// the mean of the two directed scores, each computed on its own.
func monge2(ta, tb []string) float64 {
	return (MongeElkanTokens(ta, tb) + MongeElkanTokens(tb, ta)) / 2
}

// FuzzMongeElkanSym holds the symmetric Monge-Elkan kernel to the
// two-pass definition bit for bit.
func FuzzMongeElkanSym(f *testing.F) {
	for i, s := range equivCorpus {
		f.Add(s, equivCorpus[(i+1)%len(equivCorpus)])
	}
	f.Add(longRecords[0], longRecords[1])
	f.Add("abcd abce abdc", "abce abcd bacd abcd")
	f.Add("martha marhta", "marhta martha dwayne duane")
	f.Fuzz(func(t *testing.T, a, b string) {
		ta, tb := Tokens(a), Tokens(b)
		want := math.Float64bits(monge2(ta, tb))
		if got := math.Float64bits(MongeElkanSymTokens(ta, tb)); got != want {
			t.Fatalf("MongeElkanSymTokens(%q, %q) = %x, two-pass %x", ta, tb, got, want)
		}
	})
}

// TestMayStartFloat checks the first-byte gate against strconv.ParseFloat:
// whatever byte starts a string ParseFloat accepts, MayStartFloat accepts
// it too, for every byte value and the tails of signs, digits, decimals,
// exponents, hex floats, inf, infinity and nan.
func TestMayStartFloat(t *testing.T) {
	tails := []string{"", "5", "0", ".5", "5.", "e5", "1e-3", "x1p-2", "X1P3", "nf", "NF", "nfinity", "an", "AN", "_1", "1_0"}
	accepted := 0
	for c := 0; c < 256; c++ {
		for _, tail := range tails {
			s := string([]byte{byte(c)}) + tail
			if _, err := strconv.ParseFloat(s, 64); err == nil {
				accepted++
				if !MayStartFloat(s) {
					t.Errorf("ParseFloat accepts %q but MayStartFloat rejects it", s)
				}
			}
		}
	}
	if accepted < 40 {
		t.Fatalf("only %d strings parse: the tails miss the grammar", accepted)
	}
	for _, s := range []string{"", "abc", "$5", " 5", "#1", "e5"} {
		if MayStartFloat(s) {
			t.Errorf("MayStartFloat(%q) = true, want false", s)
		}
	}
}
