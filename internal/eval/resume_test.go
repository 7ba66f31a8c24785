package eval

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matchers"
	"repro/internal/snap"
)

func resumeHeader(h *Harness, seeds []uint64) snap.JournalHeader {
	return snap.JournalHeader{Study: "resume-test", Fingerprint: h.BenchmarkFingerprint(), Seeds: seeds}
}

// TestJournalResumeBitIdentical is the resumable-LODO contract: a run
// killed partway and resumed from its journal produces results
// bit-identical to an uninterrupted run.
func TestJournalResumeBitIdentical(t *testing.T) {
	seeds := []uint64{1, 2}
	factories := []MatcherFactory{
		func() matchers.Matcher { return matchers.NewStringSim() },
		func() matchers.Matcher { return matchers.NewZeroER() },
	}
	labels := []string{"row-stringsim", "row-zeroer"}

	baselineH := testHarness(Config{Seeds: seeds, MaxTest: 120, Parallelism: 4})
	baseline, err := baselineH.EvaluateSpecsLabeled(factories, labels, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Full journaled run.
	path := filepath.Join(t.TempDir(), "run.journal")
	h1 := testHarness(Config{Seeds: seeds, MaxTest: 120, Parallelism: 4})
	j1, err := snap.CreateJournal(path, resumeHeader(h1, seeds))
	if err != nil {
		t.Fatal(err)
	}
	h1.SetJournal(j1)
	full, err := h1.EvaluateSpecsLabeled(factories, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1.Close()
	if !reflect.DeepEqual(full, baseline) {
		t.Fatal("journaled run differs from unjournaled baseline")
	}

	// Simulate a mid-run kill: keep the header and the first 9 cells,
	// leave a torn half-line at the tail.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 12 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	torn := strings.Join(lines[:10], "") + lines[10][:len(lines[10])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: completed cells replay, the rest (and the torn cell) re-run.
	h2 := testHarness(Config{Seeds: seeds, MaxTest: 120, Parallelism: 4})
	j2, err := snap.ResumeJournal(path, resumeHeader(h2, seeds))
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 9 {
		t.Fatalf("resumed %d cells, want 9", j2.Len())
	}
	h2.SetJournal(j2)
	resumed, err := h2.EvaluateSpecsLabeled(factories, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if !reflect.DeepEqual(resumed, baseline) {
		t.Fatal("resumed run differs from uninterrupted baseline")
	}

	// After the resumed run the journal holds every cell again: a third
	// run replays everything without evaluating at all.
	h3 := testHarness(Config{Seeds: seeds, MaxTest: 120, Parallelism: 1})
	j3, err := snap.ResumeJournal(path, resumeHeader(h3, seeds))
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	wantCells := len(factories) * len(h3.Datasets()) * len(seeds)
	if j3.Len() != wantCells {
		t.Fatalf("final journal holds %d cells, want %d", j3.Len(), wantCells)
	}
	h3.SetJournal(j3)
	ran := 0
	replayed, err := h3.EvaluateSpecsLabeled([]MatcherFactory{
		func() matchers.Matcher { ran++; return matchers.NewStringSim() },
		func() matchers.Matcher { ran++; return matchers.NewZeroER() },
	}, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("full journal still constructed %d matchers", ran)
	}
	if !reflect.DeepEqual(replayed, baseline) {
		t.Fatal("journal-only replay differs from baseline")
	}
}

// TestJournalDisplayNameRestored pins that replayed cells carry the
// matcher's display name (not the journal key), so rendered tables are
// identical across resume — the distinction matters for Table 4, where
// several rows share a display name.
func TestJournalDisplayNameRestored(t *testing.T) {
	seeds := []uint64{1}
	h := testHarness(Config{Seeds: seeds, MaxTest: 80, Parallelism: 1})
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := snap.CreateJournal(path, resumeHeader(h, seeds))
	if err != nil {
		t.Fatal(err)
	}
	h.SetJournal(j)
	factories := []MatcherFactory{func() matchers.Matcher { return matchers.NewStringSim() }}
	labels := []string{"label-1"}
	live, err := h.EvaluateSpecsLabeled(factories, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second evaluation replays from the journal (same label).
	replay, err := h.EvaluateSpecsLabeled(factories, labels, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if j.Len() != len(h.Datasets()) {
		t.Fatalf("journal holds %d cells, want one per target (%d)", j.Len(), len(h.Datasets()))
	}
	for _, r := range append(live[0], replay[0]...) {
		if r.Matcher != "StringSim" {
			t.Fatalf("display name on %s: %q", r.Target, r.Matcher)
		}
	}
	if !reflect.DeepEqual(live, replay) {
		t.Fatal("replayed results differ")
	}
}

// TestUnlabeledCellsBypassJournal pins that an installed journal never
// affects unlabeled evaluations.
func TestUnlabeledCellsBypassJournal(t *testing.T) {
	seeds := []uint64{1}
	h := testHarness(Config{Seeds: seeds, MaxTest: 80, Parallelism: 1})
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := snap.CreateJournal(path, resumeHeader(h, seeds))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h.SetJournal(j)
	if _, err := h.EvaluateTarget(func() matchers.Matcher { return matchers.NewStringSim() }, "ABT"); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatalf("unlabeled run recorded %d cells", j.Len())
	}
}
