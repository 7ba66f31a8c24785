//go:build !race

// Allocation regression tests for the serving hot path. They are compiled
// out under -race: the race detector instruments allocations and makes
// sync.Pool drop puts at random, so AllocsPerRun is meaningless there. The
// non-race `go test` leg and make alloc-gate keep them honest.

package serve

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/record"
	"repro/internal/wire"
)

// zeroAllocs asserts f settles to zero allocations per run. A GC can
// empty a sync.Pool mid-measurement, so one noisy sample is retried
// before failing.
func zeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	for attempt := 0; attempt < 3; attempt++ {
		if allocs := testing.AllocsPerRun(200, f); allocs == 0 {
			return
		} else if attempt == 2 {
			t.Fatalf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestWireCacheHitZeroAlloc pins the tentpole's allocation target: a fully
// cached binary request — frame parse, cache probe, response encode —
// allocates nothing, for single pairs and for batches.
func TestWireCacheHitZeroAlloc(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 64)
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if _, err := srv.Submit(context.Background(), pairs); err != nil {
		t.Fatal(err)
	}

	single := wire.AppendRequest(nil, pairs[:1], 0)
	batch := wire.AppendRequest(nil, pairs, 0)
	dst := make([]byte, 0, 4096)
	ctx := context.Background()

	// Warm the pools and sanity-check the fast path actually hits.
	status, out := srv.ServeWire(ctx, batch, dst[:0])
	if status != http.StatusOK {
		t.Fatalf("warmup status %d", status)
	}
	resp := decodeWireResp(t, out)
	for i := range resp.Cached {
		if !resp.Cached[i] {
			t.Fatalf("warmup pair %d missed the cache", i)
		}
	}

	zeroAllocs(t, "wire single-pair cache hit", func() {
		if st, _ := srv.ServeWire(ctx, single, dst[:0]); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	})
	zeroAllocs(t, "wire batch cache hit", func() {
		if st, _ := srv.ServeWire(ctx, batch, dst[:0]); st != http.StatusOK {
			t.Fatalf("status %d", st)
		}
	})
}

// TestSubmitHitAllocCeiling pins what the record codec adds to the
// request core on an all-hit request: the MatchResult the caller keeps
// and its two slices, nothing per pair.
func TestSubmitHitAllocCeiling(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 64)
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	ctx := context.Background()
	if _, err := srv.Submit(ctx, pairs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		res, err := srv.Submit(ctx, pairs)
		if err != nil || !res.Cached[len(pairs)-1] {
			t.Fatalf("all-hit Submit: err %v", err)
		}
	})
	if allocs > 3 {
		t.Fatalf("all-hit Submit of %d pairs: %v allocs/op, want <= 3", len(pairs), allocs)
	}
}

// TestCacheKeyProbeZeroAlloc pins the satellite: building a canonical pair
// key in pooled scratch and probing the cache by bytes allocates nothing,
// hit or miss.
func TestCacheKeyProbeZeroAlloc(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 8)
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if _, err := srv.Submit(context.Background(), pairs[:4]); err != nil {
		t.Fatal(err)
	}

	probe := func(p record.Pair) {
		sc := scratchPool.Get().(*scratch)
		sc.key = appendKey(sc.key[:0], p.Left.Values, p.Right.Values)
		_, _ = srv.cache.GetBytes(sc.key)
		scratchPool.Put(sc)
	}
	probe(pairs[0]) // warm the scratch pool
	probe(pairs[5])

	zeroAllocs(t, "cache-hit key probe", func() { probe(pairs[0]) })
	zeroAllocs(t, "cache-miss key probe", func() { probe(pairs[5]) })
}

// TestWireErrorPathZeroAlloc extends the zero-allocation envelope to
// protocol rejections with sentinel errors (bad magic, truncation):
// junk traffic answered from static errors cannot pressure the collector.
// Errors that format a dynamic message (bad version/type) still allocate
// for the message and are deliberately out of scope.
func TestWireErrorPathZeroAlloc(t *testing.T) {
	srv, err := New(&stubMatcher{}, Config{MatcherName: "stub", CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	dst := make([]byte, 0, 512)
	badMagic := []byte{'X', 'X', wire.Version, wire.TReq, 0x01, 0x00}
	srv.ServeWire(context.Background(), badMagic, dst[:0])
	zeroAllocs(t, "bad-magic error frame", func() {
		if st, _ := srv.ServeWire(context.Background(), badMagic, dst[:0]); st != http.StatusBadRequest {
			t.Fatalf("status %d", st)
		}
	})
}
