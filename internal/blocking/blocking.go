// Package blocking implements candidate-pair generation for entity
// matching. The study evaluates matchers on pre-blocked candidate sets
// (§2.1: "real-world entity matching systems typically first apply a
// blocking function"); this package supplies that step for the example
// applications, so they exercise the full match pipeline.
//
// The blocker is a token-based inverted index with IDF weighting: records
// sharing at least one sufficiently rare token become candidates, ranked
// by weighted overlap, with a per-record candidate cap to bound the
// quadratic blow-up.
package blocking

import (
	"sort"

	"repro/internal/record"
	"repro/internal/textsim"
)

// Config tunes the blocker.
type Config struct {
	// MaxCandidatesPerRecord caps how many right-side candidates each
	// left-side record may produce (by descending overlap weight).
	MaxCandidatesPerRecord int
	// MinSharedWeight is the minimum summed IDF weight of shared tokens
	// for a pair to become a candidate.
	MinSharedWeight float64
}

// DefaultConfig returns a blocker configuration suited to the benchmark
// datasets (a few candidates per record, rare-token anchored).
func DefaultConfig() Config {
	return Config{MaxCandidatesPerRecord: 10, MinSharedWeight: 3.0}
}

// Blocker generates candidate pairs between two relations.
type Blocker struct {
	cfg Config
}

// New returns a blocker with the given configuration.
func New(cfg Config) *Blocker {
	if cfg.MaxCandidatesPerRecord <= 0 {
		cfg.MaxCandidatesPerRecord = DefaultConfig().MaxCandidatesPerRecord
	}
	if cfg.MinSharedWeight <= 0 {
		cfg.MinSharedWeight = DefaultConfig().MinSharedWeight
	}
	return &Blocker{cfg: cfg}
}

// CandidatePairs returns the blocked candidate set from left × right,
// each left record paired with at most MaxCandidatesPerRecord right
// records sharing rare tokens.
func (b *Blocker) CandidatePairs(left, right []record.Record) []record.Pair {
	// Serialize each record once and resolve its text profile through the
	// shared cache: the profile's Uniq slice is the first-occurrence
	// deduplicated token list every stage below needs, and the IDF
	// statistics observe the same profiles.
	cache := textsim.Shared()
	profile := func(r record.Record) *textsim.Profile {
		return cache.Get(record.SerializeRecord(r, record.SerializeOptions{}))
	}
	w := textsim.NewWeighter()
	leftProfs := make([]*textsim.Profile, len(left))
	for i, r := range left {
		leftProfs[i] = profile(r)
		w.ObserveProfile(leftProfs[i])
	}
	rightProfs := make([]*textsim.Profile, len(right))
	for j, r := range right {
		rightProfs[j] = profile(r)
		w.ObserveProfile(rightProfs[j])
	}

	// Inverted index over the right relation.
	index := make(map[string][]int)
	for j := range right {
		for _, t := range rightProfs[j].Uniq {
			index[t] = append(index[t], j)
		}
	}

	// Tiny corpora have no meaningful rarity statistics: relax the gates so
	// small ad-hoc inputs (CLI smoke runs, unit tests) still block.
	idfGate := 1.5
	minWeight := b.cfg.MinSharedWeight
	if w.DocCount() < 40 {
		idfGate = 0
		minWeight = 0.5
	}

	// The scores map and candidate slice are reused across left records:
	// one clear/reslice per record instead of a fresh allocation (and the
	// sort closure is hoisted with them).
	var pairs []record.Pair
	scores := make(map[int]float64)
	type cand struct {
		j int
		w float64
	}
	cands := make([]cand, 0, 4*b.cfg.MaxCandidatesPerRecord)
	byWeight := func(a, c int) bool {
		if cands[a].w != cands[c].w {
			return cands[a].w > cands[c].w
		}
		return cands[a].j < cands[c].j
	}
	for li, l := range left {
		clear(scores)
		cands = cands[:0]
		for _, t := range leftProfs[li].Uniq {
			idf := w.IDF(t)
			if idf < idfGate {
				continue // too common to anchor a block
			}
			postings := index[t]
			if len(postings) > len(right)/4 && len(right) > 40 {
				continue // degenerate token, would block everything
			}
			for _, j := range postings {
				scores[j] += idf
			}
		}
		for j, s := range scores {
			if s >= minWeight {
				cands = append(cands, cand{j, s})
			}
		}
		sort.Slice(cands, byWeight)
		if len(cands) > b.cfg.MaxCandidatesPerRecord {
			cands = cands[:b.cfg.MaxCandidatesPerRecord]
		}
		for _, c := range cands {
			pairs = append(pairs, record.Pair{Left: l, Right: right[c.j]})
		}
	}
	return pairs
}

// Recall computes the fraction of true matches that survive blocking,
// given the ground-truth matching ID pairs; the blocking tests hold it to
// a floor. Pair orientation is ignored — a self-join within one relation
// can emit (A,B) while the truth holds (B,A) — and a truth pair found
// under both orientations (or more than once) still counts once.
func Recall(candidates []record.Pair, truth map[[2]string]bool) float64 {
	if len(truth) == 0 {
		return 1
	}
	found := make(map[[2]string]bool, len(truth))
	for _, p := range candidates {
		k := [2]string{p.Left.ID, p.Right.ID}
		if !truth[k] {
			k = [2]string{p.Right.ID, p.Left.ID}
			if !truth[k] {
				continue
			}
		}
		found[k] = true
	}
	return float64(len(found)) / float64(len(truth))
}
