// Package crossem is the public API of the cross-dataset entity-matching
// study reproduction. It exposes the benchmark datasets, the eight matcher
// families, the leave-one-dataset-out evaluation harness, and the
// throughput/cost model behind the paper's Tables 5–6 — everything a
// downstream user needs to run cross-dataset entity matching or to extend
// the study with new matchers.
//
// Quick start:
//
//	h := crossem.NewHarness(nil)                      // paper protocol
//	res, err := h.EvaluateTarget(crossem.AnyMatchLLaMA, "ABT")
//	fmt.Printf("F1 on ABT: %.1f ± %.1f\n", res.Mean(), res.Std())
//
// Or match two records directly with a prompted model:
//
//	m := crossem.PromptMatcher(crossem.ModelGPT4, 1)
//	match := m.MatchPair(recordA, recordB)
package crossem

import (
	"repro/internal/blocking"
	"repro/internal/cluster"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/lm"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/stats"
)

// Re-exported data-model types.
type (
	// Record is a tuple of attribute values (strings; empty = missing).
	Record = record.Record
	// Pair is a candidate record pair.
	Pair = record.Pair
	// LabeledPair is a pair with ground truth.
	LabeledPair = record.LabeledPair
	// Dataset is a benchmark dataset of labeled pairs.
	Dataset = record.Dataset
	// Schema describes aligned attributes (hidden from matchers).
	Schema = record.Schema
	// Matcher is the common matcher interface.
	Matcher = matchers.Matcher
	// Task is a batch prediction request.
	Task = matchers.Task
	// Result aggregates one matcher's scores on one target dataset.
	Result = eval.Result
	// Harness runs the leave-one-dataset-out protocol.
	Harness = eval.Harness
	// MatcherFactory builds a fresh matcher per evaluation run.
	MatcherFactory = eval.MatcherFactory
	// ModelProfile describes a simulated language model.
	ModelProfile = lm.Profile
)

// Model profiles of the study.
var (
	ModelBERT      = lm.BERT
	ModelGPT2      = lm.GPT2
	ModelDeBERTa   = lm.DeBERTa
	ModelT5        = lm.T5
	ModelLLaMA32   = lm.LLaMA32
	ModelJellyfish = lm.LLaMA213B
	ModelMixtral   = lm.Mixtral8x7B
	ModelSOLAR     = lm.SOLAR
	ModelBeluga2   = lm.Beluga2
	ModelGPT35     = lm.GPT35Turbo
	ModelGPT4oMini = lm.GPT4oMini
	ModelGPT4      = lm.GPT4
)

// Matcher factories, usable directly with Harness.EvaluateTarget /
// EvaluateTargets.
var (
	// StringSim is the Ratcliff/Obershelp parameter-free baseline.
	StringSim MatcherFactory = func() Matcher { return matchers.NewStringSim() }
	// ZeroER is the unsupervised Gaussian-mixture matcher.
	ZeroER MatcherFactory = func() Matcher { return matchers.NewZeroER() }
	// Ditto is the fine-tuned BERT matcher with augmentation.
	Ditto MatcherFactory = func() Matcher { return matchers.NewDitto() }
	// Unicorn is the multi-task mixture-of-experts matcher.
	Unicorn MatcherFactory = func() Matcher { return matchers.NewUnicorn() }
	// AnyMatchGPT2 is the data-centric matcher on GPT-2.
	AnyMatchGPT2 MatcherFactory = func() Matcher { return matchers.NewAnyMatchGPT2() }
	// AnyMatchT5 is the data-centric matcher on T5.
	AnyMatchT5 MatcherFactory = func() Matcher { return matchers.NewAnyMatchT5() }
	// AnyMatchLLaMA is the data-centric matcher on LLaMA 3.2 (1.3B), the
	// study's best quality/cost trade-off.
	AnyMatchLLaMA MatcherFactory = func() Matcher { return matchers.NewAnyMatchLLaMA() }
	// Jellyfish is the instruction-tuned 13B data-preparation model.
	Jellyfish MatcherFactory = func() Matcher { return matchers.NewJellyfish() }
)

// MatchGPT returns a factory for the prompted matcher over the given model
// profile without demonstrations (the paper's main configuration).
func MatchGPT(profile ModelProfile) MatcherFactory {
	return func() Matcher { return matchers.NewMatchGPT(profile) }
}

// DatasetNames returns the 11 benchmark dataset codes in Table 1 order.
func DatasetNames() []string { return datasets.Names() }

// GenerateDataset builds a benchmark dataset deterministically from a seed.
func GenerateDataset(name string, seed uint64) (*Dataset, error) {
	return datasets.Generate(name, seed)
}

// NewHarness builds the leave-one-dataset-out harness. Pass nil seeds for
// the paper's five-seed protocol, or fewer seeds for quicker runs.
// Evaluation runs on one worker per CPU; every worker count produces
// identical results (see NewHarnessParallel to pin the count).
func NewHarness(seeds []uint64) *Harness {
	return NewHarnessParallel(seeds, 0)
}

// NewHarnessParallel is NewHarness with an explicit evaluation worker
// count: 0 means one worker per CPU, and a positive value runs that many
// workers (1 runs the cells inline, in table order). The worker count
// never changes results — every (matcher, target, seed) cell is
// independently seeded and results merge back in table order.
func NewHarnessParallel(seeds []uint64, parallelism int) *Harness {
	cfg := eval.DefaultConfig()
	if len(seeds) > 0 {
		cfg.Seeds = seeds
	}
	cfg.Parallelism = parallelism
	return eval.NewHarness(cfg)
}

// PairMatcher matches individual record pairs in isolation (no batch
// context), the mode a deployed service uses for online requests.
type PairMatcher struct {
	model *lm.PromptModel
}

// PromptMatcher returns a pair-at-a-time matcher backed by a prompted
// model profile. The seed controls decision noise; fixed seeds give
// reproducible decisions.
func PromptMatcher(profile ModelProfile, seed uint64) *PairMatcher {
	return &PairMatcher{model: lm.NewPromptModel(profile, stats.NewRNG(seed))}
}

// MatchPair reports whether the two records refer to the same entity.
func (m *PairMatcher) MatchPair(a, b Record) bool {
	return m.model.Match(Pair{Left: a, Right: b}, record.SerializeOptions{})
}

// MatchProb returns the model's match probability for the two records.
func (m *PairMatcher) MatchProb(a, b Record) float64 {
	return m.model.MatchProb(Pair{Left: a, Right: b}, record.SerializeOptions{})
}

// Observe feeds corpus text to the matcher, sharpening its token-rarity
// weighting (call with the records you are about to match).
func (m *PairMatcher) Observe(text string) { m.model.ObserveCorpus(text) }

// Blocker generates candidate pairs between two relations by rare-token
// inverted-index blocking — the step real matching systems run before the
// matcher (§2.1 of the paper).
type Blocker = blocking.Blocker

// BlockerConfig tunes candidate generation.
type BlockerConfig = blocking.Config

// NewBlocker returns a blocker; pass the zero config for defaults.
func NewBlocker(cfg BlockerConfig) *Blocker { return blocking.New(cfg) }

// SerializeRecord renders a record the way matchers see it (values only,
// comma separated — never attribute names, per the cross-dataset
// restrictions).
func SerializeRecord(r Record) string {
	return record.SerializeRecord(r, record.SerializeOptions{})
}

// MatchGPTRAG returns a factory for the retrieval-augmented prompted
// matcher (per-pair demonstrations retrieved from the transfer datasets —
// the paper's §5.1 future-work direction).
func MatchGPTRAG(profile ModelProfile) MatcherFactory {
	return func() Matcher { return matchers.NewMatchGPTRAG(profile) }
}

// CascadeOver returns a factory for the hybrid matcher of Finding 1: a
// cheap similarity stage short-circuits clear decisions and only uncertain
// pairs reach the expensive matcher built by inner.
func CascadeOver(inner MatcherFactory) MatcherFactory {
	return func() Matcher { return matchers.NewCascade(inner()) }
}

// Entity-clustering re-exports: turn pairwise match decisions into entity
// clusters via transitive closure (with oversize splitting).
type (
	// ClusterEdge is one positive match decision with confidence.
	ClusterEdge = cluster.Edge
	// EntityCluster is one resolved entity (sorted record IDs).
	EntityCluster = cluster.Cluster
	// ClusterConfig controls closure hygiene.
	ClusterConfig = cluster.Config
)

// ResolveEntities builds entity clusters from match edges; allIDs may list
// records that should appear as singletons when unmatched.
func ResolveEntities(edges []ClusterEdge, allIDs []string, cfg ClusterConfig) []EntityCluster {
	return cluster.Resolve(edges, allIDs, cfg)
}

// EdgesFromPredictions converts a prediction run into cluster edges.
func EdgesFromPredictions(pairs []Pair, preds []bool, scores []float64) []ClusterEdge {
	return cluster.FromPredictions(pairs, preds, scores)
}
