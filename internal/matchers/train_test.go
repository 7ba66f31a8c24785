package matchers

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// abtTraining is one fine-tuning pass for target ABT under seed 1.
type abtTraining struct {
	name string
	// growth is how many profiles the pass added to textsim.Shared().
	growth int64
	// served is how many profiles scoring one unseen pair afterwards
	// added to it: a trained matcher serves through the shared cache.
	served int64
	// digest is the sha256 of the trained matcher's snapshot: its
	// encoder's IDF table and its head weights.
	digest string
}

// abtTrained trains Ditto, AnyMatch [GPT-2] and a down-capped Unicorn
// once per test binary; the tests below read what each pass left behind.
var abtTrained = sync.OnceValue(func() []abtTraining {
	transfer := transferFor("ABT")
	unicorn := NewUnicorn()
	unicorn.TrainCap, unicorn.AuxCap = 800, 200
	var out []abtTraining
	for _, m := range []interface {
		Matcher
		snap.Snapshotter
	}{NewDitto(), NewAnyMatchGPT2(), unicorn} {
		// Train runs on one goroutine and no test runs in parallel, so
		// the misses it causes are the entries it adds.
		_, before := textsim.Shared().Stats()
		m.Train(transfer, stats.NewRNG(1))
		_, after := textsim.Shared().Stats()
		e := snap.NewEnc()
		if err := m.SnapshotState(e); err != nil {
			panic(err)
		}
		sum := sha256.Sum256(e.Bytes())
		probe := record.Record{Values: []string{"trained-state probe " + m.Name()}}
		m.Predict(Task{Pairs: []record.Pair{{Left: probe, Right: probe}}})
		_, scored := textsim.Shared().Stats()
		out = append(out, abtTraining{name: m.Name(), growth: after - before, served: scored - after, digest: hex.EncodeToString(sum[:])})
	}
	return out
})

// TestDittoTrainSharedGrowth pins that a fine-tuning pass adds nothing to
// the process-wide profile cache: the encoder featurises its corpus, and
// AnyMatch profiles its boosting sample, through a cache the pass owns
// and drops. What the trained matcher scores goes through the shared
// cache again.
func TestDittoTrainSharedGrowth(t *testing.T) {
	for _, r := range abtTrained() {
		if r.growth != 0 {
			t.Errorf("%s.Train grew the shared profile cache by %d entries, want 0", r.name, r.growth)
		}
		if r.served == 0 {
			t.Errorf("%s scored an unseen pair without the shared profile cache", r.name)
		}
	}
}

// TestTrainedStatePinned pins the exact bits training produces for target
// ABT under seed 1. The Ditto and AnyMatch digests were taken before
// training got a text cache of its own: which cache resolves the corpus
// must move no bit. The Unicorn digest was taken before the heads shared
// one optimiser and one training loop: sharing them must move no bit.
func TestTrainedStatePinned(t *testing.T) {
	want := map[string]string{
		"Ditto":            "c82ad4c70587ffb04b638309a9f9e83ec28d1f0ba496e691e9ae11c43c0fa37f",
		"AnyMatch [GPT-2]": "909bd1066ddd78b91d5e4cafa9f0fbac6292d256bfb147f8c6307499c38a1f3d",
		"Unicorn":          "355d9c210836f9037939cd96de1a43e628b960dae7e11057686b499b9daddf0a",
	}
	for _, r := range abtTrained() {
		if r.digest != want[r.name] {
			t.Errorf("%s trained state: digest %s, want %s", r.name, r.digest, want[r.name])
		}
	}
}

// BenchmarkDittoTrain runs one Ditto fine-tuning pass for target ABT
// under seed 1 per op. Besides time and allocations it reports
// retained-B: the live heap after the last pass and a GC, over the live
// heap before the first, with the transfer data and the last trained
// matcher still reachable — what training leaves in process-wide caches
// plus one trained model. Profile training with
//
//	go test ./internal/matchers -run '^$' -bench DittoTrain -cpuprofile cpu.prof
func BenchmarkDittoTrain(b *testing.B) {
	transfer := transferFor("ABT")
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	b.ReportAllocs()
	b.ResetTimer()
	var m *Ditto
	for i := 0; i < b.N; i++ {
		m = NewDitto()
		m.Train(transfer, stats.NewRNG(1))
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(int64(ms.HeapAlloc)-int64(before)), "retained-B")
	runtime.KeepAlive(m)
	runtime.KeepAlive(transfer)
}
