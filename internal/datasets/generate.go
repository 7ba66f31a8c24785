package datasets

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/par"
	"repro/internal/record"
	"repro/internal/stats"
)

// Names returns the dataset codes in the paper's Table 1 order.
func Names() []string {
	specs := allSpecs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return names
}

// Domains maps dataset code to the paper's domain label.
func Domains() map[string]string {
	out := make(map[string]string)
	for _, s := range allSpecs() {
		out[s.name] = s.domain
	}
	return out
}

// SharedDomain reports whether a dataset shares its domain with at least
// one other dataset (the Finding-5 grouping: ABT/WDC share "web product",
// DBAC/DBGO share "citation", FOZA/ZOYE share "restaurant").
func SharedDomain(name string) bool {
	domains := Domains()
	d, ok := domains[name]
	if !ok {
		return false
	}
	for other, od := range domains {
		if other != name && od == d {
			return true
		}
	}
	return false
}

// Generate builds the named dataset deterministically from the seed. The
// same (name, seed) always yields the identical dataset; different names
// yield disjoint entity universes.
func Generate(name string, seed uint64) (*record.Dataset, error) {
	for _, s := range allSpecs() {
		if s.name == name {
			return generate(s, seed), nil
		}
	}
	return nil, fmt.Errorf("datasets: unknown dataset %q", name)
}

// MustGenerate is Generate for known-good names; it panics on error.
func MustGenerate(name string, seed uint64) *record.Dataset {
	d, err := Generate(name, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// GenerateAll builds all 11 benchmark datasets with the given seed, in
// Table 1 order, on one worker per CPU.
func GenerateAll(seed uint64) []*record.Dataset {
	return GenerateAllParallel(seed, par.Workers(0))
}

// GenerateAllParallel builds all benchmark datasets across the given
// number of workers. Every dataset derives from its own seeded RNG stream
// ("dataset:"+name), so the output is identical at any worker count. The
// datasets are handed out largest first, so the biggest one (DBGO, a third
// of all pairs) never starts last; each result still lands in its Table 1
// slot.
func GenerateAllParallel(seed uint64, workers int) []*record.Dataset {
	specs := allSpecs()
	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return specs[order[a]].pos+specs[order[a]].neg > specs[order[b]].pos+specs[order[b]].neg
	})
	out := make([]*record.Dataset, len(specs))
	_ = par.Do(len(specs), workers, func(k int) error {
		i := order[k]
		out[i] = generate(specs[i], seed)
		return nil
	})
	return out
}

// splitInt derives rng's child stream for the label prefix followed by n
// in decimal. The label is built in a stack buffer: one is derived per
// entity and per record view, and formatting them through fmt cost more
// than the derivation itself.
func splitInt(rng *stats.RNG, prefix string, n int) *stats.RNG {
	var buf [32]byte
	return rng.Split(string(strconv.AppendInt(append(buf[:0], prefix...), int64(n), 10)))
}

// generate assembles the labeled pair set for one spec.
func generate(s *spec, seed uint64) *record.Dataset {
	// The dataset name is folded into the RNG stream so that entity
	// universes never collide across datasets.
	rng := stats.NewRNG(seed).Split("dataset:" + s.name)

	d := &record.Dataset{
		Name:     s.name,
		FullName: s.fullName,
		Domain:   s.domain,
		Schema:   s.schema,
	}
	d.Pairs = make([]record.LabeledPair, 0, s.pos+s.neg)

	serial := 0
	nextEntity := func() entity {
		serial++
		return s.gen(splitInt(rng, "e", serial), serial)
	}

	view := func(e entity, side string, prof CorruptionProfile, idx int) record.Record {
		vrng := splitInt(rng, "view:"+side+":", idx)
		vals := clone(e) // this view's own copy, styled and corrupted in place
		if side == "r" && s.rightStyle != nil {
			s.rightStyle(vals, vrng)
		}
		for i, v := range vals {
			p := prof
			if i == 0 {
				// The primary attribute (name/title) is never missing in
				// the benchmarks: a record always identifies its entity.
				p.MissingValue = 0
			}
			vals[i] = corruptValue(v, p, vrng)
		}
		id := append(append([]byte(s.name), '-'), side...)
		return record.Record{ID: string(strconv.AppendInt(id, int64(idx), 10)), Values: vals}
	}

	// Positives: two views of the same entity.
	for i := 0; i < s.pos; i++ {
		e := nextEntity()
		d.Pairs = append(d.Pairs, record.LabeledPair{
			Pair: record.Pair{
				Left:  view(e, "l", s.cleanProfile, i),
				Right: view(e, "r", s.dirtyProfile, i),
			},
			Match: true,
		})
	}

	// Negatives come in three kinds, mirroring what blocking leaves in a
	// real candidate set: hard negatives (confusable siblings built by the
	// spec's mutator), related negatives (independent entities sharing
	// categorical context), and residual near-random pairs.
	nHard := int(float64(s.neg) * s.hardNegRatio)
	nRelated := int(float64(s.neg) * s.relatedNegRatio)
	for i := 0; i < s.neg; i++ {
		var left, right entity
		serialBase := serial
		switch {
		case i < nHard:
			left = nextEntity()
			right = mutateDistinct(s, left, rng, i, serialBase)
		case i < nHard+nRelated:
			left = nextEntity()
			right = nextEntity()
			for _, a := range s.sharedOnRelated {
				if a < len(left) && a < len(right) {
					right[a] = left[a]
				}
			}
		default:
			left = nextEntity()
			right = nextEntity()
		}
		idx := s.pos + i
		d.Pairs = append(d.Pairs, record.LabeledPair{
			Pair: record.Pair{
				Left:  view(left, "l", s.cleanProfile, idx),
				Right: view(right, "r", s.dirtyProfile, idx),
			},
			Match: false,
		})
	}
	return d
}

// mutateDistinct applies the spec's hard-negative mutator, retrying with
// fresh randomness in the (rare) event the mutation reproduces the source
// entity verbatim — which would silently create a mislabeled negative.
func mutateDistinct(s *spec, left entity, rng *stats.RNG, i, serial int) entity {
	prefix := "mut" + strconv.Itoa(i) + "."
	for attempt := 0; ; attempt++ {
		right := s.mutate(left, splitInt(rng, prefix, attempt), serial+attempt)
		if !sameEntity(left, right) || attempt >= 8 {
			return right
		}
	}
}

func sameEntity(a, b entity) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Stat is one row of Table 1.
type Stat struct {
	Name     string
	FullName string
	Domain   string
	Attrs    int
	Pos      int
	Neg      int
}

// Table1 returns the published dataset statistics (which the generators
// reproduce exactly), in table order.
func Table1() []Stat {
	specs := allSpecs()
	out := make([]Stat, len(specs))
	for i, s := range specs {
		out[i] = Stat{
			Name: s.name, FullName: s.fullName, Domain: s.domain,
			Attrs: s.schema.NumAttrs(), Pos: s.pos, Neg: s.neg,
		}
	}
	return out
}

// VerifyDisjoint checks that no serialized tuple appears in more than one
// of the given datasets, reproducing the paper's data-leakage validation
// (§5.1: "zero tuple overlap between every pair of datasets"). It returns
// the offending tuples, empty when disjoint.
func VerifyDisjoint(ds []*record.Dataset) []string {
	seen := make(map[string]string) // serialized tuple -> dataset name
	var overlaps []string
	for _, d := range ds {
		for _, p := range d.Pairs {
			for _, r := range []record.Record{p.Left, p.Right} {
				key := record.SerializeRecord(r, record.SerializeOptions{})
				if prev, ok := seen[key]; ok && prev != d.Name {
					overlaps = append(overlaps, fmt.Sprintf("%s ∩ %s: %q", prev, d.Name, key))
				} else {
					seen[key] = d.Name
				}
			}
		}
	}
	sort.Strings(overlaps)
	return overlaps
}
