package datasets

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/record"
	"repro/internal/stats"
)

// pinnedFingerprints are the content hashes of the 11 benchmarks at seed
// 42, in Table 1 order. Every table, trained model and golden figure of
// the study is computed from these bytes, so a generator change that
// moves any of them changes the study.
var pinnedFingerprints = []string{
	"fe4f19b8811db0e9ba5573fe9d8669d4efb7aafaf6b6bb6fee2cc0fbda97fb2a", // ABT
	"c539a5544a64ff43db713f93478b91611d75be773698ea59455b84cef8f6b69f", // WDC
	"69ac3dfbf6249dd1d9ae2afd830bba01d4872d3f282f578b61698dcc26c8ed24", // DBAC
	"892e13bde654127dab644f8741b418b088f878fe38bde78a1461399cda20f50f", // DBGO
	"f9347e7eb511c3a064e194463198f18768b1f4bd160ed91f0ad7b4c3f1cada59", // FOZA
	"39ae061008a48df8563fbf94d8ca5837d86a3bcdef1a1e048e83b7e7d22fa556", // ZOYE
	"ddcca1c1570a3653c3267cd8cce498042fbf0cf8e7db22e293f4c8868b4ffe1b", // AMGO
	"ee896cd9cadc3f4f417bf62f51223797870e3a9ac0add8baabffd79c26160fa3", // BEER
	"6bc0c13831738b7b503708030a6fea76e91087435384fa409efd49e8f28ad98f", // ITAM
	"4b7d0db5dbf10222606d11d249574eeeea3f260a3770001422e0b52bf0fa88c8", // ROIM
	"f751d8e2267d26a20a59662ba3c5bc5199beefc2b578200968f88a9e076348e6", // WAAM
}

const pinnedCombined = "3d6d488a56f84167e52aff80ebceeff67ed6f375490cd388cb2b4c81334da1ca"

func TestGeneratedDatasetsPinned(t *testing.T) {
	names := Names()
	for _, workers := range []int{1, 4} {
		fps := record.DatasetFingerprints(GenerateAllParallel(42, workers))
		for i, fp := range fps {
			if fp != pinnedFingerprints[i] {
				t.Errorf("workers=%d: %s fingerprint %s, want %s", workers, names[i], fp, pinnedFingerprints[i])
			}
		}
		if got := record.CombineFingerprints(fps); got != pinnedCombined {
			t.Errorf("workers=%d: combined fingerprint %s, want %s", workers, got, pinnedCombined)
		}
	}
}

func TestAbbrevPhrasesAreSortedMultiWordKeys(t *testing.T) {
	var want []string
	for k := range abbrevMap {
		if strings.Contains(k, " ") {
			want = append(want, k)
		}
	}
	sort.Strings(want)
	if strings.Join(abbrevPhrases, "|") != strings.Join(want, "|") {
		t.Fatalf("abbrevPhrases = %q, want the sorted multi-word abbrevMap keys %q", abbrevPhrases, want)
	}
}

// TestCorruptValueStable guards against draws that follow Go's random map
// order: a value holding every abbreviable word and phrase must corrupt
// the same way on every call with the same seed.
func TestCorruptValueStable(t *testing.T) {
	keys := make([]string, 0, len(abbrevMap))
	for k := range abbrevMap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	v := strings.Join(keys, " ")
	prof := CorruptionProfile{Abbreviate: 0.5, Typo: 0.1, DropToken: 0.2, CaseFlip: 0.1}
	first := corruptValue(v, prof, stats.NewRNG(17))
	for i := 0; i < 50; i++ {
		if got := corruptValue(v, prof, stats.NewRNG(17)); got != first {
			t.Fatalf("call %d: corruptValue = %q, first call gave %q", i, got, first)
		}
	}
}

// TestAppendFieldsMatchesStringsFields checks the tokeniser corruptValue
// splits values with, and spaceJoined, against the standard library on
// random strings over spaces, ASCII and Unicode whitespace and letters.
func TestAppendFieldsMatchesStringsFields(t *testing.T) {
	alphabet := []string{" ", " ", "  ", "\t", "\n", "\r", "\v", "\f", " ", "　", "\u0085", "a", "bc", "é", "9", "\xff"}
	rng := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for n := rng.Intn(9); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		v := b.String()
		want := strings.Fields(v)
		got := appendFields([]string{"keep"}, v)
		if got[0] != "keep" || !slices.Equal(got[1:], want) {
			t.Fatalf("appendFields(%q) = %q, want %q after the kept prefix", v, got, want)
		}
		if joined := strings.Join(want, " ") == v; spaceJoined(v, want) != joined {
			t.Fatalf("spaceJoined(%q) = %v, want %v", v, !joined, joined)
		}
	}
}

func TestAppendPaddedMatchesFmt(t *testing.T) {
	for width := 1; width <= 5; width++ {
		for _, n := range []int{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 123456} {
			if got, want := string(appendPadded([]byte("x"), n, width)), fmt.Sprintf("x%0*d", width, n); got != want {
				t.Errorf("appendPadded(%d, %d) = %q, want %q", n, width, got, want)
			}
		}
	}
}
