//go:build !race

// Allocation regression tests for the serving hot path. They are compiled
// out under -race: the race detector instruments allocations and makes
// sync.Pool drop puts at random, so AllocsPerRun is meaningless there. The
// non-race `go test` leg and make alloc-gate keep them honest.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestPredCachePutZeroAlloc pins the eviction path: a Put of a new, built
// key into a full shard replaces an entry in place and allocates nothing.
func TestPredCachePutZeroAlloc(t *testing.T) {
	const capacity = 64
	c := NewPredCache(capacity, 1)
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("put-%d", i)
	}
	for _, k := range keys[:capacity] {
		c.Put(k, true)
	}
	// Every Put from here on is of a key the shard does not hold: the
	// cycle of keys is four times the capacity.
	i := capacity
	zeroAllocs(t, "Put into a full shard", func() {
		c.Put(keys[i%len(keys)], i%2 == 0)
		i++
	})
}

// bodyWriter is a reusable ResponseWriter that keeps the last reply, so
// the measurement counts the handler's allocations and not a recorder's.
type bodyWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *bodyWriter) Header() http.Header    { return w.h }
func (w *bodyWriter) WriteHeader(status int) { w.status = status }
func (w *bodyWriter) Write(b []byte) (int, error) {
	w.body = append(w.body, b...)
	return len(b), nil
}

// TestMatchJSONHitAllocCeiling pins the JSON codec on an all-hit 64-pair
// request with three values a side through Server.Handler(): one string
// per value, and a per-request constant for the pairs and their shared
// value array, the result the record codec keeps, the reply and the
// test's request body wrapper.
func TestMatchJSONHitAllocCeiling(t *testing.T) {
	pairs := benchmarkPairs(t, "ABT", 64)
	values := 0
	for _, p := range pairs {
		if len(p.Left.Values) != 3 || len(p.Right.Values) != 3 {
			t.Fatalf("want 3 values a side, got %d and %d", len(p.Left.Values), len(p.Right.Values))
		}
		values += 6
	}
	srv, err := New(trained(t, "stringsim"), Config{
		MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	h := srv.Handler()
	jreq := MatchRequest{Pairs: make([]PairJSON, len(pairs))}
	for i, p := range pairs {
		jreq.Pairs[i] = PairJSON{Left: p.Left.Values, Right: p.Right.Values}
	}
	raw, err := json.Marshal(jreq)
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.NewReader(raw)
	req := httptest.NewRequest(http.MethodPost, "/match", nil)
	req.Header.Set("Content-Type", "application/json")
	w := &bodyWriter{h: http.Header{}}
	serveJSON := func() {
		body.Seek(0, io.SeekStart)
		req.Body = io.NopCloser(body)
		w.body = w.body[:0]
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body)
		}
	}
	serveJSON() // score and cache every pair
	serveJSON()
	var resp MatchResponse
	if err := json.Unmarshal(w.body, &resp); err != nil {
		t.Fatal(err)
	}
	for i, c := range resp.Cached {
		if !c {
			t.Fatalf("pair %d missed the cache", i)
		}
	}
	ceiling := float64(values + 16)
	allocs := testing.AllocsPerRun(100, serveJSON)
	t.Logf("all-hit JSON request of %d values: %.0f allocs", values, allocs)
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per all-hit JSON request of %d values, ceiling %.0f", allocs, values, ceiling)
	}
}
