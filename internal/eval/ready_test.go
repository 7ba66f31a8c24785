package eval

import (
	"errors"
	"testing"

	"repro/internal/datasets"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
)

func abtTask(t *testing.T, n int) matchers.Task {
	t.Helper()
	d, err := datasets.Generate("ABT", DatasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	task := matchers.Task{Schema: d.Schema, TargetName: d.Name}
	for _, p := range d.Pairs[:n] {
		task.Pairs = append(task.Pairs, p.Pair)
	}
	return task
}

// TestReadyMatcherColdThenWarm pins the one start-up path: the first call
// on an empty store trains, saves and points the ref; the second restores
// the same content address and predicts bit-identically.
func TestReadyMatcherColdThenWarm(t *testing.T) {
	for _, name := range []string{"stringsim", "anymatch-gpt2"} {
		spec := ReadySpec{Matcher: name, Seed: 1, Store: t.TempDir(), Ref: "emserve-" + name, Library: &Library{sets: benchmarkPool()}}
		cold, err := ReadyMatcher(spec)
		if err != nil {
			t.Fatal(err)
		}
		if cold.Warm || cold.Hash == "" || cold.Hash != cold.Key.Hash() {
			t.Fatalf("%s first call: warm=%v hash=%q key hash=%q", name, cold.Warm, cold.Hash, cold.Key.Hash())
		}
		st, err := snap.Open(spec.Store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ref, err := st.Ref(spec.Ref); err != nil || ref != cold.Hash {
			t.Fatalf("%s: ref %s = %q, %v; want %q", name, spec.Ref, ref, err, cold.Hash)
		}
		warm, err := ReadyMatcher(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Warm || warm.Hash != cold.Hash {
			t.Fatalf("%s second call: warm=%v hash=%q, want a warm start from %q", name, warm.Warm, warm.Hash, cold.Hash)
		}
		if cold.Registry == nil || warm.Registry == nil {
			t.Fatalf("%s: a store must come with the registry its metrics land in", name)
		}
		task := abtTask(t, 64)
		want, got := cold.Matcher.Predict(task), warm.Matcher.Predict(task)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("%s pair %d: restored matcher predicts %v, trained one %v", name, i, got[i], want[i])
			}
		}
	}
}

func TestReadyMatcherKeyedByMatcherAndSeed(t *testing.T) {
	dir := t.TempDir()
	a, err := ReadyMatcher(ReadySpec{Matcher: "stringsim", Seed: 1, Store: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReadyMatcher(ReadySpec{Matcher: "gpt-4", Seed: 1, Store: dir})
	if err != nil {
		t.Fatal(err)
	}
	if b.Warm || a.Hash == b.Hash {
		t.Fatalf("gpt-4 after stringsim: warm=%v, hashes %q / %q", b.Warm, a.Hash, b.Hash)
	}
	c, err := ReadyMatcher(ReadySpec{Matcher: "stringsim", Seed: 2, Store: dir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Warm || c.Hash == a.Hash {
		t.Fatalf("stringsim under another seed: warm=%v, hashes %q / %q", c.Warm, a.Hash, c.Hash)
	}
	if _, err := ReadyMatcher(ReadySpec{Matcher: "no-such-matcher"}); err == nil {
		t.Fatal("unknown matcher accepted")
	}
}

// TestReadyMatcherSplitLabel pins the RNG split labels binaries rely on
// for bit-identity: "train" by default, the caller's label otherwise.
func TestReadyMatcherSplitLabel(t *testing.T) {
	for _, split := range []string{"", "train:stringsim"} {
		m := &seedSpy{}
		if _, err := readyMatcher(m, false, ReadySpec{Seed: 9, Split: split}); err != nil {
			t.Fatal(err)
		}
		label := split
		if label == "" {
			label = "train"
		}
		if want := stats.NewRNG(9).Split(label).Uint64(); m.first != want {
			t.Fatalf("split %q: training drew %d first, want %d", split, m.first, want)
		}
	}
}

// seedSpy is a matcher with no state to save.
type seedSpy struct{ first uint64 }

func (s *seedSpy) Name() string                            { return "spy" }
func (s *seedSpy) ParamsMillions() float64                 { return 0 }
func (s *seedSpy) Train(_ []*record.Dataset, r *stats.RNG) { s.first = r.Uint64() }
func (s *seedSpy) Predict(t matchers.Task) []bool          { return make([]bool, len(t.Pairs)) }

func TestReadyMatcherNotSnapshotter(t *testing.T) {
	_, err := readyMatcher(&seedSpy{}, false, ReadySpec{Store: t.TempDir()})
	if !errors.Is(err, ErrNotSnapshotter) {
		t.Fatalf("store with a matcher that cannot snapshot: err = %v, want ErrNotSnapshotter", err)
	}
	if r, err := readyMatcher(&seedSpy{}, false, ReadySpec{}); err != nil || r.Warm || r.Hash != "" {
		t.Fatalf("without a store it must simply train: %+v, %v", r, err)
	}
}
