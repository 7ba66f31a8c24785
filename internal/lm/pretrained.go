package lm

import (
	"sync"

	"repro/internal/textsim"
)

// pretrainingCorpus is a compact stand-in for web-scale pretraining
// exposure: generic English plus domain staples from every benchmark
// domain. Seeding the IDF weighter with it gives prompted models a prior
// over token rarity before they see any candidate pairs, so common filler
// ("the", "with", "black", "street") is down-weighted from the first
// prediction on, while unseen identifiers score as maximally rare.
var pretrainingCorpus = []string{
	"the quick brown fox jumps over the lazy dog and runs down the street",
	"this product is a great choice for your home office and everyday use",
	"buy the new wireless digital camera with high definition video recording",
	"black stainless steel kitchen appliance with one year limited warranty",
	"proceedings of the international conference on management of data",
	"journal of database systems and information management research",
	"authors present a novel approach to query optimization in databases",
	"restaurant serving american food on main street in new york city",
	"italian cuisine with a great wine list and outdoor seating available",
	"india pale ale brewed by the local brewing company with citrus notes",
	"album by the artist featuring new songs in the pop and rock genre",
	"movie directed by a famous director starring award winning actors",
	"software for windows with license for one user and free updates",
	"the price includes shipping and handling for orders in the united states",
	"new and used products available from third party sellers online",
	"the best rated television shows and movies streaming this year",
	"a comprehensive study of machine learning methods for data integration",
	"please contact customer service with your order number for support",
	"classic rock and roll music from the greatest artists of all time",
	"fresh ingredients and daily specials at the corner cafe downtown",
}

// pretrainedBase is the pretraining-corpus IDF table, built once: every
// encoder and prompt model used to rebuild it from scratch (one per
// matcher per LODO cell), yet the corpus is a package constant.
var (
	pretrainedOnce sync.Once
	pretrainedBase *textsim.Weighter
)

// pretrainedWeighter returns an IDF weighter seeded with the pretraining
// corpus. The table is constructed once; callers receive a copy-on-observe
// snapshot, so matchers that absorb fine-tuning statistics still get a
// private table while zero-shot callers share the frozen base map.
func pretrainedWeighter() *textsim.Weighter {
	pretrainedOnce.Do(func() {
		w := textsim.NewWeighter()
		for _, doc := range pretrainingCorpus {
			w.Observe(doc)
		}
		// First snapshot inside the Once marks the base shared, making
		// later concurrent snapshots read-only.
		pretrainedBase = w.Snapshot()
	})
	return pretrainedBase.Snapshot()
}
