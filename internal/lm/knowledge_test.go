package lm

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// refKnowsU is knowsU through hash/fnv over the concatenated entry.
func refKnowsU(entry string) float64 {
	h := fnv.New64a()
	h.Write([]byte(entry))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// refSplitAlnum is splitAlnum building each run in a strings.Builder.
func refSplitAlnum(tok string) []string {
	var out []string
	var cur strings.Builder
	curDigit := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range tok {
		isLetter := r >= 'a' && r <= 'z'
		isDigit := r >= '0' && r <= '9'
		switch {
		case isLetter || isDigit:
			if cur.Len() > 0 && isDigit != curDigit {
				flush()
			}
			curDigit = isDigit
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return out
}

// TestKnowsUParts holds the knowledge draw of every entry shape the
// matchers ask for — "norm:"+token, "rare:"+token+"#a" and "#b", the
// contrast families and the bare knowledge-base keys — to FNV-1a through
// hash/fnv over the concatenated entry, bit for bit, over the tokens of
// every benchmark attribute value.
func TestKnowsUParts(t *testing.T) {
	check := func(want string, parts ...string) {
		t.Helper()
		if got, w := knowsU(parts...), refKnowsU(want); math.Float64bits(got) != math.Float64bits(w) {
			t.Fatalf("knowsU(%q) = %v, hash/fnv %v", parts, got, w)
		}
	}
	check("")
	check("", "", "")
	for k := range knowledgeBase {
		check(k, k)
		check("norm:"+k, "norm:", k)
	}
	for fi := range contrastSets {
		check(fmt.Sprintf("contrast:%d", fi), fmt.Sprintf("contrast:%d", fi))
	}
	seen := map[string]bool{}
	// 42 is eval.DatasetSeed (eval imports lm).
	for _, d := range datasets.GenerateAll(42) {
		for _, p := range d.Pairs[:min(400, len(d.Pairs))] {
			for _, v := range append(slices.Clip(p.Left.Values), p.Right.Values...) {
				for _, f := range strings.Fields(strings.ToLower(v)) {
					if seen[f] {
						continue
					}
					seen[f] = true
					check("norm:"+f, "norm:", f)
					check("rare:"+f+"#a", "rare:", f, "#a")
					check("rare:"+f+"#b", "rare:", f, "#b")
				}
			}
		}
	}
	if len(seen) < 1000 {
		t.Fatalf("only %d distinct fields checked", len(seen))
	}
}

// FuzzSplitAlnum holds splitAlnum, which returns substrings of its
// input, to the strings.Builder form on arbitrary input, invalid UTF-8
// included.
func FuzzSplitAlnum(f *testing.F) {
	for _, s := range []string{"", "256gb", "st.", "(213)555-0123", "a1b2c3", "ÄBC12déf", "x\xffy9", "---", "v2.5.1", "w/"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := splitAlnum(s), refSplitAlnum(s); !slices.Equal(got, want) {
			t.Fatalf("splitAlnum(%q) = %q, strings.Builder form %q", s, got, want)
		}
	})
}
