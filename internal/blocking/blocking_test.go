package blocking

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datasets"
	"repro/internal/record"
)

func TestBlockingRecallOnBenchmark(t *testing.T) {
	d := datasets.MustGenerate("FOZA", 42)
	var left, right []record.Record
	truth := make(map[[2]string]bool)
	for _, p := range d.Pairs {
		left = append(left, p.Left)
		right = append(right, p.Right)
		if p.Match {
			truth[[2]string{p.Left.ID, p.Right.ID}] = true
		}
	}
	b := New(DefaultConfig())
	candidates := b.CandidatePairs(left, right)
	if len(candidates) == 0 {
		t.Fatal("no candidates produced")
	}
	if len(candidates) >= len(left)*len(right) {
		t.Fatal("blocking did not reduce the cross product")
	}
	if rec := Recall(candidates, truth); rec < 0.9 {
		t.Fatalf("blocking recall %.3f below 0.9", rec)
	}
}

func TestBlockingCandidateCap(t *testing.T) {
	d := datasets.MustGenerate("BEER", 42)
	var left, right []record.Record
	for _, p := range d.Pairs {
		left = append(left, p.Left)
		right = append(right, p.Right)
	}
	cap := 3
	b := New(Config{MaxCandidatesPerRecord: cap, MinSharedWeight: 1})
	candidates := b.CandidatePairs(left, right)
	perLeft := make(map[string]int)
	for _, p := range candidates {
		perLeft[p.Left.ID]++
	}
	for id, n := range perLeft {
		if n > cap {
			t.Fatalf("record %s has %d candidates, cap %d", id, n, cap)
		}
	}
}

func TestBlockingDeterministic(t *testing.T) {
	d := datasets.MustGenerate("ZOYE", 42)
	var left, right []record.Record
	for i, p := range d.Pairs {
		if i >= 100 {
			break
		}
		left = append(left, p.Left)
		right = append(right, p.Right)
	}
	b := New(DefaultConfig())
	c1 := b.CandidatePairs(left, right)
	c2 := b.CandidatePairs(left, right)
	if len(c1) != len(c2) {
		t.Fatal("blocking not deterministic")
	}
	for i := range c1 {
		if c1[i].Left.ID != c2[i].Left.ID || c1[i].Right.ID != c2[i].Right.ID {
			t.Fatal("blocking order not deterministic")
		}
	}
}

func TestBlockingEmptyRelations(t *testing.T) {
	b := New(DefaultConfig())
	if got := b.CandidatePairs(nil, nil); len(got) != 0 {
		t.Fatal("empty relations should yield no candidates")
	}
}

func TestRecallEdgeCases(t *testing.T) {
	if Recall(nil, nil) != 1 {
		t.Fatal("no truth means perfect recall")
	}
	truth := map[[2]string]bool{{"a", "b"}: true}
	if Recall(nil, truth) != 0 {
		t.Fatal("no candidates means zero recall")
	}
}

// TestRecallOrientationInsensitive is the regression test for the flipped
// key bug: a self-join emits (A,B) or (B,A) depending on probe order, and
// both must count against a truth entry keyed either way.
func TestRecallOrientationInsensitive(t *testing.T) {
	a := record.Record{ID: "a"}
	b := record.Record{ID: "b"}
	c := record.Record{ID: "c"}
	d := record.Record{ID: "d"}
	truth := map[[2]string]bool{
		{"a", "b"}: true,
		{"c", "d"}: true,
	}
	flipped := []record.Pair{{Left: b, Right: a}, {Left: d, Right: c}}
	if got := Recall(flipped, truth); got != 1 {
		t.Fatalf("flipped candidate keys scored %.3f, want 1", got)
	}
	straight := []record.Pair{{Left: a, Right: b}, {Left: c, Right: d}}
	if got := Recall(straight, truth); got != 1 {
		t.Fatalf("straight candidate keys scored %.3f, want 1", got)
	}
	// A pair found in both orientations (plus duplicates) still counts once.
	both := append(append([]record.Pair{}, straight...), flipped...)
	both = append(both, straight...)
	if got := Recall(both, truth); got != 1 {
		t.Fatalf("double-oriented candidates scored %.3f, want 1", got)
	}
	if got := Recall(flipped[:1], truth); got != 0.5 {
		t.Fatalf("half coverage scored %.3f, want 0.5", got)
	}
}

// TestCandidatePairsScratchReuse guards the per-left-record allocation
// fix: the scores map and candidate slice are hoisted out of the loop, so
// allocations must not scale with the number of left records.
func TestCandidatePairsScratchReuse(t *testing.T) {
	d := datasets.MustGenerate("FOZA", 42)
	var left, right []record.Record
	seen := map[string]bool{}
	for _, p := range d.Pairs {
		if !seen[p.Left.ID] {
			seen[p.Left.ID] = true
			left = append(left, p.Left)
		}
		if !seen[p.Right.ID] {
			seen[p.Right.ID] = true
			right = append(right, p.Right)
		}
	}
	b := New(DefaultConfig())
	b.CandidatePairs(left, right) // warm the shared profile cache

	few := testing.AllocsPerRun(5, func() { b.CandidatePairs(left[:20], right) })
	many := testing.AllocsPerRun(5, func() { b.CandidatePairs(left, right) })
	// Weighter observation and the result append cost a few allocations
	// per record; the hoisted scores map / candidate slice / sort closure
	// must not come back on top of that (they added ~5 more per record).
	perLeft := (many - few) / float64(len(left)-20)
	if perLeft > 6 {
		t.Fatalf("%.1f allocations per additional left record (few=%.0f many=%.0f)", perLeft, few, many)
	}
}

// TestCandidatePairsDigest pins the exact candidate list on fixed slices
// of two generated benchmarks: the digest covers each candidate's left and
// right record IDs in output order. The recall and allocation tests above
// would not notice a change that swaps one candidate for another.
func TestCandidatePairsDigest(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		pairs int
		want  string
	}{
		{"FOZA", 400, 4000, "798d8dd446d8c5801a97b4a517a8a1640dba45510c6e567e322b2e64bb62e20e"},
		{"ABT", 600, 6000, "5f893f1fbcf61ba45c8ac084f66ae520d76a4692d75d99a33cfd6ec004cc127a"},
	} {
		d := datasets.MustGenerate(tc.name, 42)
		var left, right []record.Record
		for _, p := range d.Pairs[:tc.n] {
			left = append(left, p.Left)
			right = append(right, p.Right)
		}
		h := sha256.New()
		cands := New(DefaultConfig()).CandidatePairs(left, right)
		for _, p := range cands {
			fmt.Fprintf(h, "%s\t%s\n", p.Left.ID, p.Right.ID)
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(cands) != tc.pairs || got != tc.want {
			t.Errorf("%s[:%d]: %d candidates, digest %s; want %d, %s", tc.name, tc.n, len(cands), got, tc.pairs, tc.want)
		}
	}
}
