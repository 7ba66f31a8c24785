//go:build !race

// Compiled out under -race for the reason internal/serve/alloc_test.go
// gives: the race detector defeats sync.Pool, so AllocsPerRun means
// nothing there.

package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/wire"
)

// discardWriter is a reusable ResponseWriter, so the measurement counts
// the handler's allocations and not a recorder's.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// frontWireHitAllocCeiling is the allocations of one all-hit 64-pair wire
// request through Front.Handler() over three in-process replicas, as
// measured when the front became a byte relay (772 before it). The front
// itself allocates only the closures of the two group goroutines it
// starts; the rest are the edge's Content-Type header, the test's own
// request body wrapper and the three replies the in-process transport
// allocates (two each).
const frontWireHitAllocCeiling = 10

// wireHitFixture is one all-hit 64-pair request through a front over
// three in-process stringsim replicas, the fixture of
// TestFrontWireHitAllocCeiling and of the front benchmarks: serveWire
// sends it through Front.Handler() as a frame, and the returned pairs are
// what Front.Submit takes.
func wireHitFixture(tb testing.TB) (f *Front, pairs []record.Pair, serveWire func()) {
	tb.Helper()
	pairs = abtPairs(tb, 64)
	f, _ = inprocFleet(tb, matchers.NewStringSim(), 3,
		serve.Config{MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1},
		Config{MatcherName: "stringsim", HedgeDisabled: true})
	h := f.Handler()

	body := bytes.NewReader(wire.AppendRequest(nil, pairs, 0))
	req := httptest.NewRequest(http.MethodPost, "/match", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	w := &discardWriter{h: http.Header{}}
	serveWire = func() {
		body.Seek(0, io.SeekStart)
		req.Body = io.NopCloser(body)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("status %d", w.status)
		}
	}
	serveWire() // score and cache every pair; from here on every request is all-hit
	serveWire()
	return f, pairs, serveWire
}

func TestFrontWireHitAllocCeiling(t *testing.T) {
	_, _, serveWire := wireHitFixture(t)
	allocs := testing.AllocsPerRun(100, serveWire)
	t.Logf("all-hit wire request through Front.Handler(): %.0f allocs", allocs)
	if allocs > frontWireHitAllocCeiling {
		t.Fatalf("%.0f allocs per all-hit wire request through the front, ceiling %d", allocs, frontWireHitAllocCeiling)
	}
}

// BenchmarkFrontWireHit times an all-hit 64-pair frame through
// Front.Handler(), replicas included.
func BenchmarkFrontWireHit(b *testing.B) {
	_, _, serveWire := wireHitFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveWire()
	}
}

// BenchmarkFrontSubmitHit times the same 64 pairs through Front.Submit.
func BenchmarkFrontSubmitHit(b *testing.B) {
	f, pairs, _ := wireHitFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Submit(ctx, pairs, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRingHotPathZeroAlloc pins what the front pays per pair — KeyHash,
// Owner, and Successors on failover — at zero allocations, on the
// fixture BenchmarkRingOwner, BenchmarkRingSuccessors and
// BenchmarkKeyHash time.
func TestRingHotPathZeroAlloc(t *testing.T) {
	r, khs := benchRing(t)
	dst := make([]string, 0, r.Len())
	i := 0
	for name, f := range map[string]func(){
		"Ring.Owner":      func() { _ = r.Owner(khs[i&1023]); i++ },
		"Ring.Successors": func() { dst = r.Successors(khs[i&1023], dst); i++ },
		"KeyHash":         func() { _ = KeyHash(benchKey) },
	} {
		if allocs := testing.AllocsPerRun(1000, f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}
