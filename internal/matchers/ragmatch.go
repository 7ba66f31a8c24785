package matchers

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/lm"
	"repro/internal/record"
	"repro/internal/stats"
	"repro/internal/textsim"
)

// MatchGPTRAG is the retrieval-augmented extension of MatchGPT that the
// paper's §5.1 names as future work: instead of fixed hand-picked or
// random demonstrations, each query pair retrieves its nearest labeled
// examples from the transfer datasets and uses them as in-context
// demonstrations. Retrieval runs in similarity-profile space — pairs with
// a similar per-signal similarity signature pose a similar decision
// problem even when they come from a different domain, which is exactly
// what a cross-dataset demonstration needs to be useful.
type MatchGPTRAG struct {
	// K is the number of demonstrations retrieved per query pair.
	K int
	// IndexCap bounds the retrieval index size (sampled from transfer).
	IndexCap int

	profile lm.Profile
	rng     *stats.RNG
	index   []ragEntry
}

// ragEntry is one indexed transfer pair with its similarity signature.
type ragEntry struct {
	demo lm.Demo
	sig  []float64
}

// NewMatchGPTRAG returns the RAG matcher over the given model profile.
func NewMatchGPTRAG(profile lm.Profile) *MatchGPTRAG {
	return &MatchGPTRAG{K: 3, IndexCap: 3000, profile: profile}
}

// Name implements Matcher.
func (m *MatchGPTRAG) Name() string { return fmt.Sprintf("MatchGPT-RAG [%s]", m.profile.Name) }

// ParamsMillions implements Matcher.
func (m *MatchGPTRAG) ParamsMillions() float64 { return m.profile.ParamsMillions }

// Train implements Matcher: build the retrieval index over the transfer
// datasets (balanced across labels so positive demonstrations are
// retrievable despite the skew).
func (m *MatchGPTRAG) Train(transfer []*record.Dataset, rng *stats.RNG) {
	m.rng = rng
	pool := collectTransfer(transfer)
	balanced := balancePairs(pool, m.IndexCap/2, rng.Split("rag:index"))
	m.index = m.index[:0]
	for _, tp := range balanced {
		m.index = append(m.index, ragEntry{
			demo: lm.Demo{Pair: tp.pair, Dataset: tp.dataset},
			sig:  cheapFeatures(textsim.Shared().Get, tp.pair.Pair),
		})
	}
}

// Predict implements Matcher.
func (m *MatchGPTRAG) Predict(task Task) []bool {
	rng := m.rng
	if rng == nil {
		rng = stats.NewRNG(1)
	}
	model := lm.NewPromptModel(m.profile, rng.Split("rag:model"))
	for _, p := range task.Pairs {
		model.ObserveCorpus(record.SerializeRecord(p.Left, task.Opts))
		model.ObserveCorpus(record.SerializeRecord(p.Right, task.Opts))
	}
	// Precompute query signatures.
	sigs := make([][]float64, len(task.Pairs))
	for i, p := range task.Pairs {
		sigs[i] = cheapFeatures(textsim.Shared().Get, p)
	}
	return model.MatchBatchRAG(task.Pairs, task.Opts, func(i int) []lm.RetrievedDemo {
		return m.retrieve(sigs[i])
	})
}

// retrieve returns the K nearest index entries by signature distance, with
// relevance = exp(-distance).
func (m *MatchGPTRAG) retrieve(sig []float64) []lm.RetrievedDemo {
	if len(m.index) == 0 {
		return nil
	}
	type scored struct {
		idx  int
		dist float64
	}
	best := make([]scored, 0, m.K+1)
	for i, e := range m.index {
		d := sigDistance(sig, e.sig)
		if len(best) < m.K || d < best[len(best)-1].dist {
			best = append(best, scored{i, d})
			sort.Slice(best, func(a, b int) bool { return best[a].dist < best[b].dist })
			if len(best) > m.K {
				best = best[:m.K]
			}
		}
	}
	out := make([]lm.RetrievedDemo, 0, len(best))
	for _, s := range best {
		out = append(out, lm.RetrievedDemo{
			Demo:      m.index[s.idx].demo,
			Relevance: math.Exp(-2 * s.dist),
		})
	}
	return out
}

// sigDistance is the Euclidean distance between similarity signatures.
func sigDistance(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}
