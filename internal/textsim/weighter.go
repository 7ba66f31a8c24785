package textsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Weighter holds corpus document-frequency statistics and serves inverse
// document frequencies. Fine-tuned matchers build a Weighter over
// their transfer-learning corpus; prompted LLM simulations use one built
// over a generic web-style corpus to model pretraining exposure.
type Weighter struct {
	docCount int
	docFreq  map[string]int
	// shared marks docFreq as aliasing a frozen snapshot's map; the first
	// Observe copies it (copy-on-observe), so cheap snapshots of a large
	// pretrained table can be handed to every encoder without rebuilding.
	shared bool
}

// NewWeighter returns an empty Weighter.
func NewWeighter() *Weighter {
	return &Weighter{docFreq: make(map[string]int)}
}

// Snapshot returns a Weighter with the same statistics that shares this
// Weighter's document-frequency table until either side next observes a
// document. Concurrent snapshots of the same receiver are safe only once
// the receiver is already marked shared (take one snapshot, or observe
// nothing, before publishing it to multiple goroutines); the conditional
// below then never writes.
func (w *Weighter) Snapshot() *Weighter {
	if !w.shared {
		w.shared = true
	}
	return &Weighter{docCount: w.docCount, docFreq: w.docFreq, shared: true}
}

// ensureOwned copies the document-frequency table if it is still shared
// with a snapshot.
func (w *Weighter) ensureOwned() {
	if !w.shared {
		return
	}
	m := make(map[string]int, len(w.docFreq))
	for k, v := range w.docFreq {
		m[k] = v
	}
	w.docFreq = m
	w.shared = false
}

// Observe adds one document's tokens to the corpus statistics; each
// distinct token counts once per document. It tokenizes the text itself
// and caches nothing: corpus text is mostly seen once (shuffled column
// orders make every serialisation new), so a cached profile of it would
// be memory nobody reads again. docFreq holds integer counts, so the
// order of counting cannot change the result.
func (w *Weighter) Observe(text string) {
	w.ensureOwned()
	w.docCount++
	toks := Tokens(lowerString(text))
	slices.Sort(toks)
	for i, t := range toks {
		if i == 0 || t != toks[i-1] {
			w.docFreq[t]++
		}
	}
}

// ObserveProfile is Observe for a caller that already holds the
// document's profile.
func (w *Weighter) ObserveProfile(p *Profile) {
	w.ensureOwned()
	w.docCount++
	for _, t := range p.Uniq {
		w.docFreq[t]++
	}
}

// DocCount returns the number of observed documents.
func (w *Weighter) DocCount() int { return w.docCount }

// IDF returns the smoothed inverse document frequency of token t:
// log(1 + (N+1)/(df+1)). Unseen tokens get the maximum weight, which makes
// rare discriminative tokens (model numbers, venue names) dominate — the
// behaviour entity matchers depend on.
func (w *Weighter) IDF(t string) float64 {
	df := w.docFreq[t]
	return math.Log(1 + float64(w.docCount+1)/float64(df+1))
}

// ExportDocFreq returns the document-frequency table as parallel
// token/count slices in sorted token order — the deterministic form the
// snapshot codec stores. The receiver is not modified.
func (w *Weighter) ExportDocFreq() (tokens []string, counts []int) {
	tokens = make([]string, 0, len(w.docFreq))
	for t := range w.docFreq {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	counts = make([]int, len(tokens))
	for i, t := range tokens {
		counts[i] = w.docFreq[t]
	}
	return tokens, counts
}

// NewWeighterFromCounts reconstructs a Weighter from an exported table.
// IDF depends only on the counts, so the rebuilt Weighter weighs every
// token identically to the exported one.
func NewWeighterFromCounts(docCount int, tokens []string, counts []int) (*Weighter, error) {
	if len(tokens) != len(counts) {
		return nil, fmt.Errorf("textsim: %d tokens but %d counts", len(tokens), len(counts))
	}
	w := NewWeighter()
	w.docCount = docCount
	for i, t := range tokens {
		w.docFreq[t] = counts[i]
	}
	return w, nil
}
