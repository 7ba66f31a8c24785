package lm

import (
	"math"

	"repro/internal/mlcore"
	"repro/internal/record"
	"repro/internal/textsim"
)

// numDenseFeatures is the count of dense similarity summary features placed
// at the start of the feature space, before the hashed textual features.
const numDenseFeatures = 15

// Encoder featurises serialized record pairs for fine-tuning, standing in
// for a pretrained language model's representation. Capacity controls how
// much it can distinguish:
//
//   - HashWidth bounds the number of representable textual distinctions
//     (collisions blur rare tokens for small models);
//   - CharGrams adds subword features that survive typos;
//   - Pretraining gates lexical normalisation quality: a model with more
//     pretraining maps surface variants ("St.", "street") to shared
//     features, transferring better to unseen domain language. This is the
//     mechanism behind the paper's Finding 4 gap between fine-tuned SLMs
//     and commercial LLMs on domain-specific text.
//
// The encoder is deterministic: two identical pairs produce identical
// vectors regardless of model state, and of which text cache it resolves
// them through.
type Encoder struct {
	capacity EncoderCapacity
	hasher   *mlcore.Hasher
	idf      *textsim.Weighter
	// text is the cache the encoder resolves text through: one of its own
	// from NewEncoder until DropCorpusCache, the shared one after.
	text *textCache
}

// NewEncoder returns an encoder with the given capacity, ready to observe
// and featurise a fine-tuning corpus. It resolves text through a cache of
// its own, so the corpus never enters the process-wide caches; call
// DropCorpusCache once the corpus is encoded.
func NewEncoder(c EncoderCapacity) *Encoder {
	return &Encoder{
		capacity: c,
		hasher:   mlcore.NewHasher(c.HashWidth),
		idf:      pretrainedWeighter(),
		text:     newTextCache(textsim.NewProfileCache()),
	}
}

// DropCorpusCache releases the encoder's own text cache: from then on it
// resolves text through the process-wide cache that prompted models and
// restored encoders use, so what it scores after training is cached for
// the life of the process as before, and the fine-tuning corpus is not.
// It changes no vector. It must not run concurrently with other methods.
func (e *Encoder) DropCorpusCache() { e.text = sharedText }

// Profile returns the text profile of s from the encoder's cache, for
// training-time features computed beside the encoder's own.
func (e *Encoder) Profile(s string) *textsim.Profile { return e.text.profiles.Get(s) }

// Capacity returns the encoder's capacity parameters.
func (e *Encoder) Capacity() EncoderCapacity { return e.capacity }

// Dim returns the total feature-space width (dense + hashed).
func (e *Encoder) Dim() int { return numDenseFeatures + e.capacity.HashWidth }

// ReserveCorpus sizes the encoder's own text cache for a fine-tuning
// corpus of records records holding values attribute values in all, the
// counts its owner knows before featurising it, so the cache's maps do
// not rehash while the corpus fills them. It does nothing after
// DropCorpusCache or once the cache holds entries.
func (e *Encoder) ReserveCorpus(records, values int) {
	if e.text != sharedText {
		e.text.reserve(records, values)
	}
}

// ObserveCorpus absorbs token statistics from fine-tuning text, improving
// the IDF weighting of the dense similarity features (fine-tuning data is
// in-reach for trained matchers, unlike for zero-shot prompting).
//
// It counts the tokens of text's profile in the encoder's cache. Every
// text a matcher observes is a serialisation it encodes next with the same
// options, so the profile is the one Encode looks up: the text is
// tokenised once, and the cache gains no entry Encode would not add. While
// training that cache is the encoder's own, so the corpus it observes is
// dropped with it.
func (e *Encoder) ObserveCorpus(text string) {
	e.idf.ObserveProfile(e.text.profiles.Get(text))
}

// ObserveRecord is ObserveCorpus(record.SerializeRecord(r, opts)), with
// the profile composed from r's values (whose entries Encode reads next)
// instead of tokenising the serialisation again.
func (e *Encoder) ObserveRecord(r record.Record, opts record.SerializeOptions) {
	e.idf.ObserveProfile(e.text.recordProfile(r, opts, record.SerializeRecord(r, opts)))
}

// normCaps derives the normalisation capabilities implied by pretraining
// strength; fine-tuned models normalise only as well as their pretraining
// taught them.
func (e *Encoder) normCaps() Capabilities {
	return Capabilities{
		Normalization: 0.15 + 0.75*e.capacity.Pretraining,
		Semantics:     0.10 + 0.80*e.capacity.Pretraining,
	}
}

// Encode featurises a pair into a sparse vector. The serialization options
// determine token order exposure, matching how the paper varies serialized
// inputs across seeds.
func (e *Encoder) Encode(p record.Pair, opts record.SerializeOptions) mlcore.SparseVec {
	var vec mlcore.SparseVec
	e.EncodeInto(&vec, p, opts)
	return vec
}

// EncodeInto featurises a pair into vec, resetting it first and reusing
// its capacity. This is the batch-scoring fast path: one scratch vector
// amortised across a whole micro-batch instead of a fresh allocation per
// pair. The entries written are identical to Encode's — the encoder is
// deterministic and callers of Prob never retain the vector.
func (e *Encoder) EncodeInto(vec *mlcore.SparseVec, p record.Pair, opts record.SerializeOptions) {
	vec.Reset()
	caps := e.normCaps()

	// Dense similarity summary features (indices 0..numDenseFeatures-1).
	left := record.SerializeRecord(p.Left, opts)
	right := record.SerializeRecord(p.Right, opts)
	pl, el := e.text.recordEntries(p.Left, opts, left, caps)
	pr, er := e.text.recordEntries(p.Right, opts, right, caps)
	grams := 0
	if e.capacity.CharGrams {
		grams = min(pl.NumGrams(), pr.NumGrams())
	}
	vec.Grow(numDenseFeatures + len(el.sorted) + len(er.sorted) + grams)
	sc := evidencePool.Get().(*evidenceScratch)
	defer evidencePool.Put(sc)
	ev := extractEvidenceInto(sc, e.text, p, Capabilities{
		Normalization: caps.Normalization,
		Semantics:     caps.Semantics,
		Numeracy:      0.25 + 0.6*e.capacity.Pretraining,
		Attention:     0.30 + 0.6*e.capacity.Pretraining,
		Robustness:    0.20 + 0.65*e.capacity.Pretraining,
	}, e.idf)
	// The dense block is the encoder's "similarity instinct". Its fidelity
	// depends on pretraining: a weakly pretrained model's representation
	// of an unseen pair is imprecise, modelled as deterministic per-pair
	// noise that no amount of head training can remove. This is the
	// mechanism behind the paper's Finding 4 — fine-tuned small models
	// trail the large commercial models on domain-specific language.
	noiseScale := 1.1 * (1 - e.capacity.Pretraining)
	noise := pairNoiseBase(p)
	dense := func(idx int, val float64) {
		vec.Add(idx, val+noiseScale*pairNoiseAt(noise, idx))
	}
	dense(0, ev.Score)
	dense(1, ev.Conflict)
	dense(2, textsim.TokenJaccardP(pl, pr))
	dense(3, textsim.QGramJaccardP(pl, pr))
	dense(4, textsim.MongeElkanSymTokens(firstN(pl.Tokens, 8), firstN(pr.Tokens, 8)))
	dense(5, lengthRatio(left, right))
	dense(6, minAttrSim(ev.AttrSims))
	dense(7, ev.IdentifierMatch)
	dense(8, ev.YearConflict)
	dense(9, ev.VersionConflict)
	dense(10, ev.VersionMatch)
	dense(11, ev.ContrastConflict)
	dense(12, ev.MinShortSim)
	if len(ev.AttrSims) > 0 {
		// The primary attribute (name/title) deserves its own feature:
		// fine-tuned matchers learn that a first-field mismatch is decisive
		// whatever the rest of the record says.
		dense(13, ev.AttrSims[0])
	}
	vec.Add(14, 1) // bias-like constant feature

	// Hashed textual features: token agreement/disagreement, emitted over
	// the cached lexicographically sorted unique-token slices so the
	// vector layout is fully deterministic — the same order the old
	// sortedKeys-over-map code produced, now without building either.
	lt, rt := el.sorted, er.sorted
	j := 0
	for _, t := range lt {
		for j < len(rt) && rt[j] < t {
			j++
		}
		if j < len(rt) && rt[j] == t {
			e.addHashedPrefixed(vec, "both:", t, 1.0)
		} else {
			e.addHashedPrefixed(vec, "only:", t, 0.6)
		}
	}
	j = 0
	for _, t := range rt {
		for j < len(lt) && lt[j] < t {
			j++
		}
		if !(j < len(lt) && lt[j] == t) {
			e.addHashedPrefixed(vec, "only:", t, 0.6)
		}
	}

	// Character n-gram agreement features (subword sensitivity): shared
	// trigrams via a merge join over the profiles' sorted gram slices.
	if e.capacity.CharGrams {
		nl, nr := pl.NumGrams(), pr.NumGrams()
		i, j := 0, 0
		for i < nl && j < nr {
			gl, gr := pl.Gram(i), pr.Gram(j)
			switch {
			case gl < gr:
				i++
			case gl > gr:
				j++
			default:
				e.addHashedPrefixed(vec, "g:", gl, 0.25)
				i++
				j++
			}
		}
	}

	// Normalise the hashed block so long descriptions don't drown the
	// dense features; the dense block keeps its raw scale.
	normalizeTail(vec, numDenseFeatures)
}

// addHashedPrefixed hashes a prefixed textual feature ("both:" + token)
// into the tail of the feature space without materialising the
// concatenated feature name.
func (e *Encoder) addHashedPrefixed(vec *mlcore.SparseVec, prefix, feature string, weight float64) {
	idx := numDenseFeatures + e.hasher.IndexPrefixed(prefix, feature)
	vec.Add(idx, weight*e.hasher.SignPrefixed(prefix, feature))
}

// EncodeAttributePair featurises a single attribute-value pair, used by
// AnyMatch's attribute-level augmentation (weakly labeled value pairs).
func (e *Encoder) EncodeAttributePair(a, b string) mlcore.SparseVec {
	pair := record.Pair{
		Left:  record.Record{Values: []string{a}},
		Right: record.Record{Values: []string{b}},
	}
	return e.Encode(pair, record.SerializeOptions{})
}

// pairNoiseBase and pairNoiseAt derive a deterministic symmetric noise
// value in [-0.5, 0.5] from the pair content and a feature index: the
// base hashes the pair's IDs once for all of its indices.
func pairNoiseBase(p record.Pair) uint64 {
	h := uint64(1469598103934665603)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(p.Left.ID)
	mix(p.Right.ID)
	return h
}

// pairNoiseAt finishes the draw for one index from the pair's base.
func pairNoiseAt(h uint64, idx int) float64 {
	h ^= uint64(idx) + 0x9e3779b97f4a7c15
	h *= 1099511628211
	// SplitMix finaliser for avalanche.
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/(1<<53) - 0.5
}

// firstN returns the first n tokens of a cached token slice (no copy).
func firstN(toks []string, n int) []string {
	if len(toks) > n {
		return toks[:n]
	}
	return toks
}

func lengthRatio(a, b string) float64 {
	la, lb := len(a), len(b)
	if la == 0 && lb == 0 {
		return 1
	}
	if la > lb {
		la, lb = lb, la
	}
	return float64(la) / float64(lb)
}

func minAttrSim(sims []float64) float64 {
	if len(sims) == 0 {
		return 0
	}
	m := sims[0]
	for _, s := range sims[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

// normalizeTail L2-normalises the entries of vec at or beyond start,
// leaving the dense head untouched.
func normalizeTail(vec *mlcore.SparseVec, start int) {
	sum := 0.0
	for i, idx := range vec.Idx {
		if idx >= start {
			sum += vec.Val[i] * vec.Val[i]
		}
	}
	if sum == 0 {
		return
	}
	inv := 1 / math.Sqrt(sum)
	for i, idx := range vec.Idx {
		if idx >= start {
			vec.Val[i] *= inv
		}
	}
}
