package matchers

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/lm"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
)

// smallTransfer returns a capped slice of every transfer dataset for a
// target — enough signal to train every matcher class, small enough to
// keep the 14-configuration round-trip test fast.
func smallTransfer(target string, cap int) []*record.Dataset {
	var out []*record.Dataset
	for _, d := range benchmarkPool() {
		if d.Name == target {
			continue
		}
		sub := *d
		sub.Pairs = d.Pairs[:min(cap, len(d.Pairs))]
		out = append(out, &sub)
	}
	return out
}

// TestSnapshotRoundTripAllMatchers is the subsystem's core contract: for
// every registry configuration, a matcher restored from its snapshot
// predicts bit-identically to the freshly trained instance.
func TestSnapshotRoundTripAllMatchers(t *testing.T) {
	const target = "FOZA"
	transfer := smallTransfer(target, 60)
	task, _ := miniTask(t, target, 100)

	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			trained, needsTraining, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			shrink(trained)
			shrink(fresh)
			if needsTraining {
				trained.Train(transfer, stats.NewRNG(7).Split("train"))
			} else {
				trained.Train(nil, stats.NewRNG(7).Split("train"))
			}

			ts, ok := trained.(snap.Snapshotter)
			if !ok {
				t.Fatalf("%s does not implement snap.Snapshotter", trained.Name())
			}
			var buf bytes.Buffer
			if err := snap.Write(&buf, snap.Meta{Matcher: trained.Name()}, ts); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if _, err := snap.Read(bytes.NewReader(buf.Bytes()), fresh.(snap.Snapshotter)); err != nil {
				t.Fatalf("Read: %v", err)
			}

			if got, want := ConfigOf(fresh), ConfigOf(trained); got != want {
				t.Fatalf("restored config %q != trained config %q", got, want)
			}
			want := trained.Predict(task)
			got := fresh.Predict(task)
			if len(got) != len(want) {
				t.Fatalf("prediction count %d != %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pair %d: restored predicts %v, trained predicts %v", i, got[i], want[i])
				}
			}
			// The trained original must be unaffected by being snapshotted:
			// predicting again still matches.
			again := trained.Predict(task)
			for i := range want {
				if again[i] != want[i] {
					t.Fatalf("pair %d: snapshotting perturbed the original", i)
				}
			}
		})
	}
}

// shrink caps the training knobs of fine-tuned matchers so the full
// registry round-trip stays fast; the snapshot contract is about state
// fidelity, not model quality.
func shrink(m Matcher) {
	switch m := m.(type) {
	case *Ditto:
		m.TrainCap = 400
	case *AnyMatch:
		m.PerClass = 120
	case *Unicorn:
		m.TrainCap = 400
		m.AuxCap = 120
	}
}

// TestSnapshotProfileMismatch pins the fail-closed behaviour of
// profile-carrying snapshots: a GPT-4 snapshot cannot restore into a
// matcher configured for another model.
func TestSnapshotProfileMismatch(t *testing.T) {
	trained := NewMatchGPT(lm.GPT4)
	trained.Train(smallTransfer("ABT", 30), stats.NewRNG(1).Split("train"))
	var buf bytes.Buffer
	if err := snap.Write(&buf, snap.Meta{Matcher: trained.Name()}, trained); err != nil {
		t.Fatal(err)
	}
	wrong := NewMatchGPT(lm.GPT35Turbo)
	if _, err := snap.Read(bytes.NewReader(buf.Bytes()), wrong); !errors.Is(err, snap.ErrMismatch) {
		t.Fatalf("got %v, want ErrMismatch", err)
	}
	// The matcher-level tag check also rejects snapshots of other types.
	other := NewStringSim()
	if _, err := snap.Read(bytes.NewReader(buf.Bytes()), other); !errors.Is(err, snap.ErrMismatch) {
		t.Fatalf("cross-type restore: got %v, want ErrMismatch", err)
	}
}

// TestConfigOfCoversKnobs pins that every tweakable knob lands in the
// config fingerprint, so a tweaked matcher can never alias the stock
// artifact in the store.
func TestConfigOfCoversKnobs(t *testing.T) {
	a, b := NewDitto(), NewDitto()
	if ConfigOf(a) != ConfigOf(b) {
		t.Fatal("identical Dittos fingerprint differently")
	}
	b.TrainCap++
	if ConfigOf(a) == ConfigOf(b) {
		t.Fatal("TrainCap tweak not in fingerprint")
	}
	s1, s2 := NewStringSim(), NewStringSim()
	s2.Threshold += 0.01
	if ConfigOf(s1) == ConfigOf(s2) {
		t.Fatal("threshold tweak not in fingerprint")
	}
	g1, g2 := NewMatchGPT(lm.GPT4), NewMatchGPT(lm.GPT35Turbo)
	if ConfigOf(g1) == ConfigOf(g2) {
		t.Fatal("model profile not in fingerprint")
	}
}
