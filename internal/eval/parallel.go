package eval

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// This file is the evaluation engine. The leave-one-dataset-out protocol
// decomposes into (matcher, target, seed) cells that share only read-only
// inputs — the generated benchmark, the fixed test partitions and the
// serialization cache — and derive all randomness from their own seeded
// RNG stream. The engine therefore fans cells across a worker pool and
// merges them back through indexed slots, making the output byte-identical
// at every worker count; with one worker the cells run inline in table
// order. Every Evaluate* method is a call into evaluate.

// EvaluateTarget runs one matcher on one target dataset across all seeds.
func (h *Harness) EvaluateTarget(factory MatcherFactory, target string) (Result, error) {
	rs, err := h.EvaluateTargets(factory, []string{target})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// EvaluateTargets runs one matcher over the given targets. The results
// come back in the order of the targets argument.
func (h *Harness) EvaluateTargets(factory MatcherFactory, targets []string) ([]Result, error) {
	out, err := h.evaluate([]MatcherFactory{factory}, nil, targets, nil)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// EvaluateSpecs runs several matcher configurations over the full
// benchmark at once, scheduling every (spec, target, seed) cell on one
// shared worker pool — the engine behind the quality tables, where the
// cheap configurations would otherwise leave workers idle while an
// expensive one finishes its row.
//
// progress (may be nil) fires once per fully completed configuration,
// always from a single goroutine and always in spec order — even when a
// later spec's cells finish first.
func (h *Harness) EvaluateSpecs(factories []MatcherFactory, progress func(spec int)) ([][]Result, error) {
	return h.EvaluateSpecsLabeled(factories, nil, progress)
}

// EvaluateSpecsLabeled is EvaluateSpecs with per-spec journal labels:
// when a run journal is installed and labels is non-nil, completed cells
// replay from the journal (skipping training entirely) and fresh cells
// are recorded as they finish — so a killed run resumes where it
// stopped. Replayed and live cells merge through the same indexed slots,
// keeping a resumed run bit-identical to an uninterrupted one.
func (h *Harness) EvaluateSpecsLabeled(factories []MatcherFactory, labels []string, progress func(spec int)) ([][]Result, error) {
	if labels != nil && len(labels) != len(factories) {
		return nil, fmt.Errorf("eval: %d factories but %d labels", len(factories), len(labels))
	}
	return h.evaluate(factories, labels, h.targetNames(), progress)
}

// targetNames returns every dataset name in Table 1 order.
func (h *Harness) targetNames() []string {
	names := make([]string, len(h.all))
	for i, d := range h.all {
		names[i] = d.Name
	}
	return names
}

// evaluate runs every (spec, target, seed) cell on the harness's workers
// and returns one result row per spec, in targets order. Inputs resolve
// up front, so an unknown target name errors before any cell runs; a
// failing cell reports the lowest-indexed failure (par.Do), independent
// of scheduling. labels may be nil (no journaling).
func (h *Harness) evaluate(factories []MatcherFactory, labels, targets []string, progress func(spec int)) ([][]Result, error) {
	inputs := make([]*targetInputs, len(targets))
	for i, t := range targets {
		in, err := h.targetInputs(t)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	nSeeds := len(h.cfg.Seeds)
	perSpec := len(inputs) * nSeeds
	cells := make([]cell, len(factories)*perSpec)

	// Per-spec countdowns feed the ordered notifier: the last cell of a
	// spec to finish reports it, and the notifier re-orders those reports
	// into in-order progress callbacks.
	remaining := make([]atomic.Int64, len(factories))
	for s := range remaining {
		remaining[s].Store(int64(perSpec))
	}
	notifier := par.NewOrderedNotifier(len(factories), progress)
	err := par.Do(len(cells), h.Parallelism(), func(i int) error {
		s, rem := i/perSpec, i%perSpec
		t, k := rem/nSeeds, rem%nSeeds
		label := ""
		if labels != nil {
			label = labels[s]
		}
		c, cerr := h.runCellJournaled(factories[s], label, inputs[t], h.cfg.Seeds[k])
		if cerr != nil {
			return cerr
		}
		cells[i] = c
		if remaining[s].Add(-1) == 0 {
			notifier.Done(s)
		}
		return nil
	})
	notifier.Close()
	if err != nil {
		return nil, err
	}

	out := make([][]Result, len(factories))
	for s := range factories {
		rs := make([]Result, len(inputs))
		for t, in := range inputs {
			base := s*perSpec + t*nSeeds
			rs[t] = mergeCells(in.d.Name, cells[base:base+nSeeds])
		}
		out[s] = rs
	}
	return out, nil
}
