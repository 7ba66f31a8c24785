package fleet

import (
	"context"
	"testing"

	"repro/internal/record"
	"repro/internal/serve"
)

// mirrorPairs builds pairs owned by target whose keys fall in the
// mirror sample at the given permille.
func mirrorPairs(t *testing.T, f *Front, target string, permille, n int) []record.Pair {
	t.Helper()
	var out []record.Pair
	for i := 0; len(out) < n && i < 100000; i++ {
		p := record.Pair{
			Left:  record.Record{Values: []string{testValue(i)}},
			Right: record.Record{Values: []string{"mirror"}},
		}
		key := mustKey(p)
		if f.Ring().Owner(KeyHash(key)) != target {
			continue
		}
		if !MirrorSampled(KeyHash(key), permille) {
			continue
		}
		out = append(out, p)
	}
	if len(out) < n {
		t.Fatalf("found only %d/%d mirror-sampled pairs for %s", len(out), n, target)
	}
	return out
}

func testValue(i int) string {
	// Vary length so stubPred covers both outcomes.
	v := "canary-seek-"
	for j := 0; j <= i%7; j++ {
		v += "x"
	}
	return v + string(rune('a'+i%26)) + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func mustKey(p record.Pair) []byte {
	return serve.AppendPairKey(nil, p, serve.CanonicalKeyOptions(nil))
}

func TestCanaryBitIdenticalPromotes(t *testing.T) {
	f, st, _ := testFront(t, Config{MirrorPermille: 1000, CanaryMinSample: 8}, "r1", "r2")
	st.add("stub://canary") // honest stub: same deterministic predictions

	if _, err := f.PromoteCanary(); err == nil {
		t.Fatal("promote with no canary succeeded")
	}
	if err := f.StartCanary("nope", "stub://canary"); err == nil {
		t.Fatal("canary for unknown target accepted")
	}
	if err := f.StartCanary("r1", "stub://canary"); err != nil {
		t.Fatal(err)
	}
	if err := f.StartCanary("r1", "stub://other"); err == nil {
		t.Fatal("second concurrent canary accepted")
	}

	// Not ready yet: nothing mirrored.
	if _, err := f.PromoteCanary(); err == nil {
		t.Fatal("promote before any mirrored traffic succeeded")
	}

	pairs := mirrorPairs(t, f, "r1", 1000, 10)
	if _, err := f.Submit(context.Background(), pairs, 0); err != nil {
		t.Fatal(err)
	}
	f.WaitMirrors()
	rep := f.Canary()
	if rep == nil || rep.Mirrored < 8 {
		t.Fatalf("canary report = %+v, want >= 8 mirrored", rep)
	}
	if rep.Mismatched != 0 || !rep.Ready {
		t.Fatalf("bit-identical canary not ready: %+v", rep)
	}

	oldURL, err := f.PromoteCanary()
	if err != nil {
		t.Fatal(err)
	}
	if oldURL != "stub://r1" {
		t.Fatalf("promote returned old URL %q", oldURL)
	}
	if got := f.Replica("r1").URL(); got != "stub://canary" {
		t.Fatalf("cutover URL = %q", got)
	}
	if f.Canary() != nil {
		t.Fatal("canary still active after promotion")
	}
	// The ring identity did not move: the same pairs still route to the
	// member named r1, now answered by the canary process.
	before := st.get("stub://canary").calls
	if _, err := f.Submit(context.Background(), pairs, 0); err != nil {
		t.Fatal(err)
	}
	if st.get("stub://canary").calls <= before {
		t.Fatal("promoted canary not serving its ring arc")
	}
}

func TestCanaryMismatchBlocksPromotion(t *testing.T) {
	f, st, _ := testFront(t, Config{MirrorPermille: 1000, CanaryMinSample: 4}, "r1", "r2")
	liar := st.add("stub://canary")
	liar.mu.Lock()
	liar.invert = true // diverging predictions
	liar.mu.Unlock()

	if err := f.StartCanary("r1", "stub://canary"); err != nil {
		t.Fatal(err)
	}
	pairs := mirrorPairs(t, f, "r1", 1000, 6)
	if _, err := f.Submit(context.Background(), pairs, 0); err != nil {
		t.Fatal(err)
	}
	f.WaitMirrors()
	rep := f.Canary()
	if rep.Mismatched == 0 {
		t.Fatalf("diverging canary recorded no mismatches: %+v", rep)
	}
	if rep.Ready {
		t.Fatal("diverging canary reported Ready")
	}
	if _, err := f.PromoteCanary(); err == nil {
		t.Fatal("diverging canary promoted")
	}
	if got := f.Replica("r1").URL(); got != "stub://r1" {
		t.Fatalf("incumbent URL changed to %q despite mismatch", got)
	}
}

func TestCanaryMirrorFailuresAreObserveOnly(t *testing.T) {
	f, st, _ := testFront(t, Config{MirrorPermille: 1000, CanaryMinSample: 4}, "r1", "r2")
	broken := st.add("stub://canary")
	broken.mu.Lock()
	broken.fail = 1 << 30
	broken.mu.Unlock()

	if err := f.StartCanary("r1", "stub://canary"); err != nil {
		t.Fatal(err)
	}
	pairs := mirrorPairs(t, f, "r1", 1000, 4)
	// Live traffic must be unaffected by a dead canary.
	res, err := f.Submit(context.Background(), pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Preds) != len(pairs) {
		t.Fatal("live response truncated by mirror failure")
	}
	f.WaitMirrors()
	rep := f.Canary()
	if rep.Errors == 0 {
		t.Fatalf("mirror errors not counted: %+v", rep)
	}
	if rep.Ready {
		t.Fatal("erroring canary reported Ready")
	}
}

func TestMirrorSampledDeterministic(t *testing.T) {
	in, total := 0, 10000
	for i := 0; i < total; i++ {
		kh := KeyHash([]byte(testValue(i)))
		a, b := MirrorSampled(kh, 250), MirrorSampled(kh, 250)
		if a != b {
			t.Fatal("sampling not deterministic")
		}
		if a {
			in++
		}
		if MirrorSampled(kh, 1000) != true {
			t.Fatal("permille 1000 must sample everything")
		}
		if MirrorSampled(kh, 0) {
			t.Fatal("permille 0 must sample nothing")
		}
	}
	// ~25% +- generous tolerance.
	if in < total*15/100 || in > total*35/100 {
		t.Fatalf("250 permille sampled %d/%d", in, total)
	}
}
