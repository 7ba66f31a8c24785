package textsim

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
)

// Weighter holds corpus document-frequency statistics and serves inverse
// document frequencies. Fine-tuned matchers build a Weighter over
// their transfer-learning corpus; prompted LLM simulations use one built
// over a generic web-style corpus to model pretraining exposure.
//
// Memory contract: besides docFreq, a Weighter holds one IDF table of at
// most idfTableMax entries for its current document count, filled as IDF
// reads it and dropped by the next Observe or ObserveProfile. IDF and
// DocCount are safe for concurrent use with each other (serving workers
// share one encoder's Weighter); Observe, ObserveProfile and Snapshot are
// not safe for concurrent use with any method.
type Weighter struct {
	docCount int
	docFreq  map[string]int
	// shared marks docFreq as aliasing a frozen snapshot's map; the first
	// Observe copies it (copy-on-observe), so cheap snapshots of a large
	// pretrained table can be handed to every encoder without rebuilding.
	shared bool
	// logs memoises IDF by document frequency for docCount; nil until the
	// first IDF after construction or an observation.
	logs atomic.Pointer[idfTable]
}

// idfTableMax bounds the IDF table: document frequencies below it are
// read from the table, larger ones computed per call.
const idfTableMax = 1024

// idfTable holds math.Float64bits of the IDF of each document frequency
// df < len(bits) for one document count; zero marks an entry not yet
// computed (an IDF is always positive, so no computed entry is zero).
// Entries are written with atomic stores, so racing readers may each
// compute one, and all store the same bits.
type idfTable struct {
	bits []atomic.Uint64
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

// observed records that docCount or docFreq changed: the IDF table no
// longer holds this corpus's weights.
func (w *Weighter) observed() { w.logs.Store(nil) }

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
	w.observed()
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
	w.observed()
	w.docCount++
	for _, t := range p.Uniq {
		w.docFreq[t]++
	}
}

// ObserveJoined is Observe for a document whose text is the Raw strings
// of parts joined by a separator that Tokens splits at without a token of
// its own (such as ", "): its tokens are the parts' tokens, so each
// distinct token of the parts counts once, and nothing is tokenised
// again.
func (w *Weighter) ObserveJoined(parts []*Profile) {
	w.ensureOwned()
	w.observed()
	w.docCount++
	if len(parts) == 1 {
		for _, t := range parts[0].Uniq {
			w.docFreq[t]++
		}
		return
	}
	u := 0
	for _, q := range parts {
		u += len(q.SortedIDs)
	}
	var idStack [128]uint32
	var seenStack [128]bool
	all, seen := idStack[:0], seenStack[:]
	if u > len(idStack) {
		all, seen = make([]uint32, 0, u), make([]bool, u)
	}
	for _, q := range parts {
		all = append(all, q.SortedIDs...)
	}
	slices.Sort(all)
	all = slices.Compact(all)
	for _, q := range parts {
		for j, t := range q.Uniq {
			slot, _ := slices.BinarySearch(all, q.uniqIDs[j])
			if !seen[slot] {
				seen[slot] = true
				w.docFreq[t]++
			}
		}
	}
}

// DocCount returns the number of observed documents.
func (w *Weighter) DocCount() int { return w.docCount }

// IDF returns the smoothed inverse document frequency of token t:
// log(1 + (N+1)/(df+1)). Unseen tokens get the maximum weight, which makes
// rare discriminative tokens (model numbers, venue names) dominate — the
// behaviour entity matchers depend on.
//
// The logarithm is memoised per document frequency in the Weighter's IDF
// table, so a repeated frequency costs a load instead of a math.Log; the
// value is the same bits either way.
func (w *Weighter) IDF(t string) float64 {
	df := w.docFreq[t]
	tab := w.logs.Load()
	if tab == nil {
		tab = &idfTable{bits: make([]atomic.Uint64, min(max(w.docCount+1, 0), idfTableMax))}
		if !w.logs.CompareAndSwap(nil, tab) {
			tab = w.logs.Load()
		}
	}
	if uint(df) >= uint(len(tab.bits)) {
		return idf(w.docCount, df)
	}
	if b := tab.bits[df].Load(); b != 0 {
		return math.Float64frombits(b)
	}
	v := idf(w.docCount, df)
	tab.bits[df].Store(math.Float64bits(v))
	return v
}

// idf is the smoothed inverse document frequency of a token in df of
// docCount documents.
func idf(docCount, df int) float64 {
	return math.Log(1 + float64(docCount+1)/float64(df+1))
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
