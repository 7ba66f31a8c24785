package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func testHashes(n int) []uint64 {
	khs := make([]uint64, n)
	for i := range khs {
		khs[i] = KeyHash([]byte(fmt.Sprintf("left-%04d\x1fright-%04d", i, i)))
	}
	return khs
}

// loadCounts assigns every key hash to its owner in r and returns the
// count per member.
func loadCounts(r *Ring, keyHashes []uint64) map[string]int {
	counts := make(map[string]int, r.Len())
	for _, m := range r.members {
		counts[m] = 0
	}
	for _, kh := range keyHashes {
		counts[r.Owner(kh)]++
	}
	return counts
}

// movedKeys counts how many keys change owner between two rings.
func movedKeys(a, b *Ring, keyHashes []uint64) int {
	n := 0
	for _, kh := range keyHashes {
		if a.Owner(kh) != b.Owner(kh) {
			n++
		}
	}
	return n
}

// Placement must be a pure function of the membership set and the key
// bytes: input order, repeated construction and GOMAXPROCS must not
// change a single assignment.
func TestRingDeterministicPlacement(t *testing.T) {
	khs := testHashes(2000)
	a, err := NewRing(0, "r1", "r2", "r3", "r4")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(0, "r4", "r2", "r1", "r3") // same set, different input order
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(khs))
	for i, kh := range khs {
		want[i] = a.Owner(kh)
	}
	for i, kh := range khs {
		if got := b.Owner(kh); got != want[i] {
			t.Fatalf("key %d: owner %q under reordered construction, want %q", i, got, want[i])
		}
	}

	// Same assignments from concurrent lookups under a different
	// GOMAXPROCS: the ring is immutable, so parallelism must be
	// invisible.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(khs); i += 8 {
				if got := a.Owner(khs[i]); got != want[i] {
					select {
					case errs <- fmt.Sprintf("key %d: concurrent owner %q, want %q", i, got, want[i]):
					default:
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Join/leave must move only the joining/leaving member's fair share of
// keys (~K/N), not reshuffle the world — the property that makes a
// replica death warm the survivors' caches instead of flushing the
// fleet's.
func TestRingRebalanceBounded(t *testing.T) {
	const K = 4000
	khs := testHashes(K)
	four, err := NewRing(0, "r1", "r2", "r3", "r4")
	if err != nil {
		t.Fatal(err)
	}

	// Join: r5 enters a 4-ring; it should take ~K/5 keys, and every
	// moved key must move TO r5 (no lateral churn among survivors).
	five, err := four.With("r5")
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, kh := range khs {
		before, after := four.Owner(kh), five.Owner(kh)
		if before == after {
			continue
		}
		moved++
		if after != "r5" {
			t.Fatalf("join: key moved %s->%s, lateral moves are forbidden", before, after)
		}
	}
	fair := K / 5
	// Allow 60% headroom over fair share for vnode variance at 64
	// vnodes; the point is moved << K, not a perfect 1/5.
	if limit := fair + fair*60/100; moved > limit {
		t.Fatalf("join moved %d keys, want <= %d (fair %d)", moved, limit, fair)
	}
	if moved == 0 {
		t.Fatal("join moved no keys — r5 owns nothing")
	}

	// Leave: dropping r4 must move exactly the keys r4 owned, each to a
	// survivor, and nothing else.
	three, err := NewRing(0, "r1", "r2", "r3")
	if err != nil {
		t.Fatal(err)
	}
	movedOut := 0
	for _, kh := range khs {
		before, after := four.Owner(kh), three.Owner(kh)
		if before == "r4" {
			movedOut++
			if after == "r4" {
				t.Fatal("leave: key still owned by removed member")
			}
		} else if before != after {
			t.Fatalf("leave: key not owned by r4 moved %s->%s", before, after)
		}
	}
	if want := loadCounts(four, khs)["r4"]; movedOut != want {
		t.Fatalf("leave moved %d keys, r4 owned %d", movedOut, want)
	}
}

func TestRingSuccessorsDistinctAndComplete(t *testing.T) {
	r, err := NewRing(0, "r1", "r2", "r3", "r4", "r5")
	if err != nil {
		t.Fatal(err)
	}
	for _, kh := range testHashes(200) {
		succ := r.Successors(kh, nil)
		if len(succ) != r.Len() {
			t.Fatalf("successors returned %d members, want %d", len(succ), r.Len())
		}
		if succ[0] != r.Owner(kh) {
			t.Fatalf("successors[0] = %q, owner = %q", succ[0], r.Owner(kh))
		}
		seen := map[string]bool{}
		for _, m := range succ {
			if seen[m] {
				t.Fatalf("duplicate member %q in successor chain", m)
			}
			seen[m] = true
		}
	}
}

func TestRingDuplicateMemberRejected(t *testing.T) {
	if _, err := NewRing(0, "r1", "r2", "r1"); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestRingLoadBalance(t *testing.T) {
	r, err := NewRing(0, "r1", "r2", "r3")
	if err != nil {
		t.Fatal(err)
	}
	khs := testHashes(3000)
	counts := loadCounts(r, khs)
	total := 0
	for m, n := range counts {
		if n == 0 {
			t.Fatalf("member %s owns nothing", m)
		}
		total += n
	}
	if total != len(khs) {
		t.Fatalf("counts sum to %d, want %d", total, len(khs))
	}
	// With 64 vnodes the heaviest member stays within 1.5x fair share
	// (max ÷ mean <= 1.5) — the same placement-balance bound emfleet
	// -smoke asserts on measured per-replica load.
	fair := len(khs) / 3
	for m, n := range counts {
		if n > fair*3/2 {
			t.Fatalf("member %s owns %d keys, fair share %d — dispersion too poor", m, n, fair)
		}
	}
}

func TestMovedCountsOwnershipChanges(t *testing.T) {
	a, _ := NewRing(0, "r1", "r2", "r3")
	b, _ := NewRing(0, "r1", "r2")
	khs := testHashes(1000)
	if got, want := movedKeys(a, b, khs), loadCounts(a, khs)["r3"]; got != want {
		t.Fatalf("movedKeys = %d, want r3's %d keys", got, want)
	}
	if movedKeys(a, a, khs) != 0 {
		t.Fatal("movedKeys against itself is non-zero")
	}
}

// benchRing is the fixture of the ring benchmarks and of the alloc gate
// that mirrors them (alloc_test.go): 8 replicas, 1024 key hashes.
func benchRing(tb testing.TB) (*Ring, []uint64) {
	tb.Helper()
	r, err := NewRing(0, "r1", "r2", "r3", "r4", "r5", "r6", "r7", "r8")
	if err != nil {
		tb.Fatal(err)
	}
	return r, testHashes(1024)
}

var benchKey = []byte("anthropologie maxi dress floral\x1fanthropologie floral maxi dress")

func BenchmarkRingOwner(b *testing.B) {
	r, khs := benchRing(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Owner(khs[i&1023])
	}
}

func BenchmarkRingSuccessors(b *testing.B) {
	r, khs := benchRing(b)
	dst := make([]string, 0, r.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = r.Successors(khs[i&1023], dst)
	}
}

func BenchmarkKeyHash(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = KeyHash(benchKey)
	}
}
