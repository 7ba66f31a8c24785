package main

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"testing"
)

// The request bytes are the benchmark's input: the same seed must send
// the same bytes in the same order on every machine, and another seed
// the same requests in another order. The pinned hash changes only when
// the dataset generators or the wire encoding change, and then every
// stored baseline is void.
func TestRequestSequenceIsDeterministic(t *testing.T) {
	const n = 128
	ws := workingSet(generateDatasets(), n, false)
	if len(ws) != n {
		t.Fatalf("working set has %d requests, want %d", len(ws), n)
	}
	datasets := map[string]bool{}
	for _, r := range ws {
		if len(r.pairs) != pairsPerRequest || len(r.labels) != pairsPerRequest {
			t.Fatalf("request of %d pairs", len(r.pairs))
		}
		datasets[r.dataset] = true
	}
	if len(datasets) < 6 {
		t.Errorf("working set draws on %d datasets only", len(datasets))
	}

	one, again, two := requestOrder(1, len(ws)), requestOrder(1, len(ws)), requestOrder(2, len(ws))
	h1 := sequenceHash(ws, one)
	if h1 != sequenceHash(workingSet(generateDatasets(), n, false), again) {
		t.Error("same seed, different bytes")
	}
	const pinned = "27fefa8a0d4029a13c6af977ffa27f399b10244746589181141d7990ee4599cb"
	if h1 != pinned {
		t.Errorf("seed 1 sends %s, pinned %s", h1, pinned)
	}
	if h1 == sequenceHash(ws, two) {
		t.Error("seeds 1 and 2 send the same sequence")
	}
	a, b := append([]int(nil), one...), append([]int(nil), two...)
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != i || b[i] != i {
			t.Fatalf("an order is not a permutation of the working set: %v / %v", one, two)
		}
	}
}

// sequenceHash fingerprints the exact bytes a workload sends in one
// cycle, in order.
func sequenceHash(ws []*request, order []int) string {
	h := sha256.New()
	for _, i := range order {
		h.Write(ws[i].wire)
	}
	return hex.EncodeToString(h.Sum(nil))
}
