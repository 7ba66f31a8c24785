package lm_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"repro/internal/lm"
	"repro/internal/record"
	"repro/internal/stats"
)

// TestNoDemosDecisionsPinned pins the exact decisions of MatchBatch and the
// bits of MatchProb for models prompted without demonstrations, on a
// stride sample of every benchmark dataset. The digest was taken before
// demonstrations were given a content-based effect: a model never handed
// demonstrations and one handed nil must both still produce it, so the
// demonstration mechanism draws no noise and moves no decision when there
// is nothing to read.
func TestNoDemosDecisionsPinned(t *testing.T) {
	const want = "86de99688c0c96281b5332d154f08659320c1ac0f1ee388f2ef37010438210a1"
	all := lm.BenchmarkPool()
	for name, setup := range map[string]func(*lm.PromptModel){
		"never set": func(*lm.PromptModel) {},
		"set nil":   func(m *lm.PromptModel) { m.SetDemos(nil) },
	} {
		if got := noDemoDigest(all, setup); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
}

func noDemoDigest(all []*record.Dataset, setup func(*lm.PromptModel)) string {
	h := sha256.New()
	var buf [8]byte
	for _, prof := range []lm.Profile{lm.GPT35Turbo, lm.GPT4oMini, lm.GPT4} {
		for di, d := range all {
			var pairs []record.Pair
			for i := 0; i < len(d.Pairs); i += 13 {
				pairs = append(pairs, d.Pairs[i].Pair)
			}
			opts := record.SerializeOptions{ColumnOrder: stats.NewRNG(uint64(di)).Perm(d.Schema.NumAttrs())}
			m := lm.NewPromptModel(prof, stats.NewRNG(uint64(11+di)))
			setup(m)
			for _, p := range pairs {
				m.ObserveCorpus(record.SerializeRecord(p.Left, opts))
				m.ObserveCorpus(record.SerializeRecord(p.Right, opts))
			}
			for _, yes := range m.MatchBatch(pairs, opts) {
				if yes {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
			for _, p := range pairs[:30] {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(m.MatchProb(p, opts)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// demoBench is a target batch and a transfer dataset to draw
// demonstrations from, scored by a noise-free GPT-3.5 so that decisions
// differ only where the threshold moves.
type demoBench struct {
	prof   lm.Profile
	pairs  []record.Pair
	labels []bool
	source *record.Dataset
}

func newDemoBench() demoBench {
	prof := lm.GPT35Turbo
	prof.Zero.DecisionNoise, prof.Zero.DemoNoise = 0, 0
	target, source := poolDataset("WDC"), poolDataset("BEER")
	b := demoBench{prof: prof, source: source}
	for i := 0; i < len(target.Pairs); i += 7 {
		b.pairs = append(b.pairs, target.Pairs[i].Pair)
		b.labels = append(b.labels, target.Pairs[i].Match)
	}
	return b
}

// poolDataset returns the named dataset of lm.BenchmarkPool.
func poolDataset(name string) *record.Dataset {
	for _, d := range lm.BenchmarkPool() {
		if d.Name == name {
			return d
		}
	}
	panic("no benchmark dataset " + name)
}

// model returns a fresh engine that has observed the target batch.
func (b demoBench) model(demos []lm.Demo) *lm.PromptModel {
	m := lm.NewPromptModel(b.prof, stats.NewRNG(1))
	for _, p := range b.pairs {
		m.ObserveCorpus(record.SerializeRecord(p.Left, record.SerializeOptions{}))
		m.ObserveCorpus(record.SerializeRecord(p.Right, record.SerializeOptions{}))
	}
	m.SetDemos(demos)
	return m
}

// demos returns one positive and two negatives from the source, the way
// an expert picks them: the positive the engine finds most alike, and
// either the two negatives it finds least alike (easy) or most alike
// (near-duplicates).
func (b demoBench) demos(hardNegatives bool) []lm.Demo {
	m := b.model(nil)
	var pos, neg []record.LabeledPair
	for _, p := range b.source.Pairs {
		if p.Match {
			pos = append(pos, p)
		} else {
			neg = append(neg, p)
		}
	}
	score := func(p record.LabeledPair) float64 { return m.RawScores([]record.Pair{p.Pair})[0] }
	sort.SliceStable(pos, func(i, j int) bool { return score(pos[i]) > score(pos[j]) })
	sort.SliceStable(neg, func(i, j int) bool { return score(neg[i]) < score(neg[j]) })
	if hardNegatives {
		neg = neg[len(neg)-2:]
	}
	return []lm.Demo{
		{Pair: neg[0], Dataset: b.source.Name},
		{Pair: pos[0], Dataset: b.source.Name},
		{Pair: neg[1], Dataset: b.source.Name},
	}
}

func (b demoBench) confusion(demos []lm.Demo) (out []bool, tp, fp, fn int) {
	out = b.model(demos).MatchBatch(b.pairs, record.SerializeOptions{})
	for i, yes := range out {
		switch {
		case yes && b.labels[i]:
			tp++
		case yes:
			fp++
		case b.labels[i]:
			fn++
		}
	}
	return out, tp, fp, fn
}

// TestDemoContentMiscalibrates: two demonstration sets with the same
// selection (one positive, two negatives, one source) and the same count
// but different content move the same batch's decisions in opposite
// directions. Unrelated negatives centre the boundary low and cost
// precision; near-duplicate negatives centre it high and cost recall.
func TestDemoContentMiscalibrates(t *testing.T) {
	b := newDemoBench()
	noneOut, tp0, fp0, fn0 := b.confusion(nil)
	easyOut, tpE, fpE, fnE := b.confusion(b.demos(false))
	hardOut, tpH, fpH, fnH := b.confusion(b.demos(true))
	t.Logf("none tp=%d fp=%d fn=%d; easy negatives tp=%d fp=%d fn=%d; near-duplicate negatives tp=%d fp=%d fn=%d",
		tp0, fp0, fn0, tpE, fpE, fnE, tpH, fpH, fnH)

	differ := 0
	for i := range easyOut {
		if easyOut[i] != hardOut[i] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("demonstration sets with different content gave identical decisions")
	}
	precision := func(tp, fp int) float64 { return float64(tp) / float64(tp+fp) }
	recall := func(tp, fn int) float64 { return float64(tp) / float64(tp+fn) }

	// Easy negatives: more Yes answers, never fewer; the extra ones cost
	// precision.
	for i := range noneOut {
		if noneOut[i] && !easyOut[i] {
			t.Fatalf("easy demonstrations turned down pair %d that no demonstrations accepted", i)
		}
	}
	if !(fpE > fp0 && precision(tpE, fpE) < precision(tp0, fp0)) {
		t.Errorf("easy demonstrations should cost precision: fp %d -> %d, precision %.3f -> %.3f",
			fp0, fpE, precision(tp0, fp0), precision(tpE, fpE))
	}
	// Near-duplicate negatives: fewer Yes answers, never more; the lost
	// ones cost recall.
	for i := range noneOut {
		if hardOut[i] && !noneOut[i] {
			t.Fatalf("near-duplicate demonstrations accepted pair %d that no demonstrations turned down", i)
		}
	}
	if !(recall(tpH, fnH) < recall(tp0, fn0)) {
		t.Errorf("near-duplicate demonstrations should cost recall: %.3f -> %.3f", recall(tp0, fn0), recall(tpH, fnH))
	}
}

// TestDemoSingleSourcePullsHarder: the same three demonstrations move the
// decisions further when they come from one source than when each names a
// different one, since only demonstrations that share a source pull
// together.
func TestDemoSingleSourcePullsHarder(t *testing.T) {
	b := newDemoBench()
	single := b.demos(false)
	mixed := append([]lm.Demo(nil), single...)
	for i := range mixed {
		mixed[i].Dataset = []string{"BEER", "ITAM", "ROIM"}[i]
	}
	noneOut, _, _, _ := b.confusion(nil)
	singleOut, _, _, _ := b.confusion(single)
	mixedOut, _, _, _ := b.confusion(mixed)
	moved := func(out []bool) (n int) {
		for i := range out {
			if out[i] != noneOut[i] {
				n++
			}
		}
		return n
	}
	if s, m := moved(singleOut), moved(mixedOut); !(s > m && m > 0) {
		t.Errorf("decisions moved: one source %d, three sources %d; want one source > three sources > 0", s, m)
	}
}
