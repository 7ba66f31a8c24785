package lm

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/textsim"
)

// This file holds the lm-level text caches layered over textsim's profile
// cache. Evidence extraction derives several quantities from each raw
// attribute value (trimmed form, loose number, version tokens, identifier
// candidates) and from each (value, capabilities) pair (normalised token
// list); all of them are pure functions of their key over a small fixed
// universe of record values, so both layers are read-mostly maps in the
// style of record.SerializeCache.

// valEntry caches the capability-independent derivations of one raw
// attribute value.
type valEntry struct {
	// prof is the textsim profile of the raw value; the evidence path
	// reads its tokens and sorted IDs, never its trigrams.
	prof *textsim.Profile
	// trimmed is strings.TrimSpace of the value; attrSimilarityE's
	// missing-value checks run on it.
	trimmed string
	// lowerTrim is strings.ToLower(trimmed), the form the innumerate
	// fallback Levenshtein comparison uses.
	lowerTrim string
	// looseNum/looseOK memoise parseLooseNumber of the value.
	looseNum float64
	looseOK  bool
	// versionToks memoises versionTokens of the value.
	versionToks []string
	// identCands holds the identifier-shaped rare-token candidates with
	// their attention-gate draws precomputed; appendRareTokens filters
	// them per call against the (mutable) IDF table and the model's
	// Attention.
	identCands []identCand
}

// identCand is one identifier-shaped token with the two deterministic
// uniform draws of its attention gate precomputed, so the per-call gate is
// two float comparisons instead of two hashes of concatenated strings.
//
// Real readers get several chances to notice an identifier (title, spec
// field, description), so the gate passes if either of two independent
// draws, knowsU("rare:"+tok+"#a") and knowsU("rare:"+tok+"#b"), falls
// below the model's coverage: effective coverage 1-(1-c)², which separates
// the top models (0.9 → 0.99) from the weak ones (0.5 → 0.75) more sharply
// than a single draw.
type identCand struct {
	tok    string
	uA, uB float64
}

var valCache = struct {
	sync.RWMutex
	m map[string]*valEntry
}{m: make(map[string]*valEntry)}

// valEntryFor returns the memoised capability-independent entry for a raw
// attribute value.
func valEntryFor(v string) *valEntry {
	valCache.RLock()
	e := valCache.m[v]
	valCache.RUnlock()
	if e != nil {
		return e
	}
	e = buildValEntry(v)
	valCache.Lock()
	if q, ok := valCache.m[v]; ok {
		e = q
	} else {
		valCache.m[v] = e
	}
	valCache.Unlock()
	return e
}

func buildValEntry(v string) *valEntry {
	trimmed := strings.TrimSpace(v)
	fields := strings.Fields(strings.ToLower(v))
	e := &valEntry{
		prof:        textsim.Shared().Get(v),
		trimmed:     trimmed,
		lowerTrim:   strings.ToLower(trimmed),
		versionToks: versionTokens(fields),
	}
	e.looseNum, e.looseOK = parseLooseNumber(v)
	// Identifier candidates: the split/trim/shape part of
	// appendRareTokens, which does not depend on capabilities or corpus
	// statistics.
	for _, f := range fields {
		t := strings.Trim(f, ",;:!?\"'()[]$€£")
		if t == "" || !isIdentifierToken(t) {
			continue
		}
		e.identCands = append(e.identCands, identCand{
			tok: t,
			uA:  knowsU("rare:", t, "#a"),
			uB:  knowsU("rare:", t, "#b"),
		})
	}
	return e
}

// normKey keys the normalised-text cache: normalizeText depends on the
// text and on the Normalization and Semantics capabilities only.
type normKey struct {
	norm, sem float64
	text      string
}

// normEntry caches one normalizeText result in the three shapes its
// consumers need.
type normEntry struct {
	// toks is the normalizeText output, duplicates and order preserved.
	toks []string
	// sorted holds the unique tokens in lexicographic order; overlap
	// scores and the encoder's both/only features merge-join over it.
	sorted []string
	// joined memoises joinedProfile.
	joined atomic.Pointer[textsim.Profile]
}

// joinedProfile returns the profile of strings.Join(toks, " "), the input
// of the character-gram comparison in attrSimilarityE and read nowhere
// else, so it is built on first use: the encoder's normalised view of a
// whole serialised record never needs it. Racing first users store the
// same pointer, because the shared cache returns one profile per string.
func (e *normEntry) joinedProfile() *textsim.Profile {
	if p := e.joined.Load(); p != nil {
		return p
	}
	p := textsim.Shared().Get(strings.Join(e.toks, " "))
	e.joined.Store(p)
	return p
}

var normCache = struct {
	sync.RWMutex
	m map[normKey]*normEntry
}{m: make(map[normKey]*normEntry)}

// normEntryFor returns the memoised normalised form of text under the
// model's capabilities.
func normEntryFor(text string, caps Capabilities) *normEntry {
	key := normKey{norm: caps.Normalization, sem: caps.Semantics, text: text}
	normCache.RLock()
	e := normCache.m[key]
	normCache.RUnlock()
	if e != nil {
		return e
	}
	toks := normalizeText(text, caps)
	e = &normEntry{
		toks:   toks,
		sorted: sortedUniqueTokens(toks),
	}
	normCache.Lock()
	if q, ok := normCache.m[key]; ok {
		e = q
	} else {
		normCache.m[key] = e
	}
	normCache.Unlock()
	return e
}

// sortedUniqueTokens returns the distinct tokens in lexicographic order.
func sortedUniqueTokens(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	out := append([]string(nil), toks...)
	sort.Strings(out)
	j := 0
	for i := 1; i < len(out); i++ {
		if out[i] != out[j] {
			j++
			out[j] = out[i]
		}
	}
	return out[:j+1]
}
