package eval

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
)

// ReadySpec says which registry matcher to make ready and how.
// RegisterFlags binds the first four fields; code sets the rest.
type ReadySpec struct {
	Matcher  string // matchers.ByName name; goes into the snapshot key as given
	Seed     uint64 // training seed, part of the snapshot key
	Parallel int    // workers generating the transfer library (0 = one per CPU)
	Store    string // snapshot store directory; "" trains every time

	Split    string        // RNG split label training draws from ("" = "train"); part of the bit-identity contract
	Ref      string        // store ref to point at the snapshot ("" = none)
	Registry *obs.Registry // receives the store's metrics (nil = one labelled by matcher)
	Library  *Library      // shared so tiers and replicas generate the library once (nil = private)
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// RegisterFlags registers the flags every binary that readies a served
// matcher shares: -matcher, -seed, -parallel and -store.
func (s *ReadySpec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Matcher, "matcher", "stringsim", "matcher to make ready: "+strings.Join(matchers.Names(), ", "))
	fs.Uint64Var(&s.Seed, "seed", 1, "random seed for matcher training")
	fs.IntVar(&s.Parallel, "parallel", 0, "workers for transfer-library generation: 0 = one per CPU")
	fs.StringVar(&s.Store, "store", "", "snapshot store directory: restore the trained matcher from it (warm start), train-then-save on a miss")
}

// Library is the built-in transfer library, generated by the first
// matcher that trains on it.
type Library struct{ sets []*record.Dataset }

// Ready is a matcher that can predict, and how it got there.
type Ready struct {
	Matcher  matchers.Matcher
	Warm     bool          // restored from the store, not trained
	Seconds  float64       // wall time of that restore or training
	Key      snap.Key      // the snapshot's address (zero without a store)
	Hash     string        // its content hash ("" without a store)
	Registry *obs.Registry // ReadySpec.Registry, or the one created for the store
}

// ErrNotSnapshotter reports a store given for a matcher whose state
// cannot be saved to it.
var ErrNotSnapshotter = errors.New("matcher does not snapshot")

// ReadyMatcher is the one start-up path of every binary that serves or
// applies a registry matcher: resolve the name, generate the transfer
// library only if the matcher trains, then restore the snapshot addressed
// by (matcher, config, transfer data, seed) or train and save it. Restored
// and trained matchers predict bit-identically, whichever binary saved.
func ReadyMatcher(spec ReadySpec) (*Ready, error) {
	m, trains, err := matchers.ByName(spec.Matcher)
	if err != nil {
		return nil, err
	}
	return readyMatcher(m, trains, spec)
}

func readyMatcher(m matchers.Matcher, trains bool, spec ReadySpec) (*Ready, error) {
	logf := spec.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := &Ready{Matcher: m, Registry: spec.Registry}
	snapper, _ := m.(snap.Snapshotter)
	var st *snap.Store
	if spec.Store != "" {
		if snapper == nil {
			return nil, fmt.Errorf("%s: %w; drop the store", m.Name(), ErrNotSnapshotter)
		}
		if r.Registry == nil {
			r.Registry = obs.NewRegistry(obs.Label{Key: "matcher", Value: m.Name()})
		}
		var err error
		if st, err = snap.Open(spec.Store, r.Registry); err != nil {
			return nil, err
		}
	}

	var library []*record.Dataset
	if trains {
		lib := spec.Library
		if lib == nil {
			lib = &Library{}
		}
		if lib.sets == nil {
			lib.sets = datasets.GenerateAllParallel(DatasetSeed, spec.Parallel)
		}
		library = lib.sets
	}
	start := time.Now()
	if st != nil {
		r.Key = snap.Key{
			Matcher: spec.Matcher,
			Config:  matchers.ConfigOf(m),
			Data:    record.DatasetFingerprints(library),
			Seed:    spec.Seed,
		}
		if _, err := st.Load(r.Key, snapper); err == nil {
			r.Warm, r.Hash = true, r.Key.Hash()
		} else if !errors.Is(err, snap.ErrNotFound) {
			logf("snapshot load failed (%v); training from scratch", err)
		}
	}
	if r.Warm {
		r.Seconds = time.Since(start).Seconds()
		logf("warm start: restored %s from snapshot %.12s in %.3fs", m.Name(), r.Hash, r.Seconds)
	} else {
		split := spec.Split
		if split == "" {
			split = "train"
		}
		if trains {
			logf("training %s on the built-in transfer library...", m.Name())
		}
		m.Train(library, stats.NewRNG(spec.Seed).Split(split))
		r.Seconds = time.Since(start).Seconds()
		if trains {
			logf("trained in %.1fs", r.Seconds)
		}
		if st != nil {
			var err error
			if r.Hash, err = st.Save(r.Key, m.Name(), snapper); err != nil {
				return nil, fmt.Errorf("saving snapshot: %w", err)
			}
			logf("cold start: trained in %.3fs, saved snapshot %.12s (next start is warm)", r.Seconds, r.Hash)
		}
	}
	if st != nil && spec.Ref != "" {
		if err := st.SetRef(spec.Ref, r.Hash); err != nil {
			return nil, err
		}
	}
	return r, nil
}
