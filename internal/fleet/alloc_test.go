//go:build !race

// Compiled out under -race for the reason internal/serve/alloc_test.go
// gives: the race detector defeats sync.Pool, so AllocsPerRun means
// nothing there.

package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/matchers"
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
// measured when the front moved onto the shared /match edge (813 before
// it). The front still materialises every pair and re-frames per replica
// (ROADMAP item 5), which is where they go; the ceiling keeps the edge
// from adding to them.
const frontWireHitAllocCeiling = 772

func TestFrontWireHitAllocCeiling(t *testing.T) {
	pairs := abtPairs(t, 64)
	f, _ := inprocFleet(t, matchers.NewStringSim(), 3,
		serve.Config{MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 1},
		Config{MatcherName: "stringsim", HedgeDisabled: true})
	h := f.Handler()

	body := bytes.NewReader(wire.AppendRequest(nil, pairs, 0))
	req := httptest.NewRequest(http.MethodPost, "/match", nil)
	req.Header.Set("Content-Type", wire.ContentType)
	w := &discardWriter{h: http.Header{}}
	do := func() {
		body.Seek(0, io.SeekStart)
		req.Body = io.NopCloser(body)
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	do() // score and cache every pair; from here on every request is all-hit
	do()
	allocs := testing.AllocsPerRun(100, do)
	t.Logf("all-hit wire request through Front.Handler(): %.0f allocs", allocs)
	if allocs > frontWireHitAllocCeiling {
		t.Fatalf("%.0f allocs per all-hit wire request through the front, ceiling %d", allocs, frontWireHitAllocCeiling)
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
