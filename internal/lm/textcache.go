package lm

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
	"unicode/utf8"

	"repro/internal/record"
	"repro/internal/textsim"
)

// This file holds the lm-level text caches layered over textsim's profile
// cache. Evidence extraction derives several quantities from each raw
// attribute value (trimmed form, loose number, version tokens, identifier
// candidates) and from each (value, capabilities) pair (normalised token
// list); all of them are pure functions of their key, so a textCache holds
// them as read-mostly maps in the style of record.SerializeCache, next to
// the profile cache it resolves text through. A serialised record's
// profile and normalised entry are composed from its values' entries
// (recordEntries) and held in the same maps, one entry per distinct
// serialisation as before; an entry's joined gram set hangs off the entry
// itself. Nothing is held that the text a cache resolves does not
// determine, so each cache is bounded by the text it has seen.
//
// Which cache a caller resolves through decides only how long the entries
// live, never what they hold. Prompted models and every trained encoder
// after its training pass use sharedText, which wraps textsim.Shared()
// and, like it, never evicts: it holds the records a process scores. A
// fine-tuning pass featurises its corpus through a cache of its own
// (newTextCache over a fresh profile cache), bounded by that corpus and
// dropped when the pass ends, so training adds nothing to the
// process-wide state. Such a pass may size its cache's maps up front
// from its corpus's record and value counts (reserve), the same bound
// its entries already have.

// textCache is one scope of the value, normalised-text and profile
// caches. All methods are safe for concurrent use.
type textCache struct {
	profiles *textsim.ProfileCache

	valMu sync.RWMutex
	vals  map[string]*valEntry

	normMu sync.RWMutex
	norms  map[normKey]*normEntry
}

// newTextCache returns an empty cache resolving profiles through p.
func newTextCache(p *textsim.ProfileCache) *textCache {
	return &textCache{
		profiles: p,
		vals:     make(map[string]*valEntry),
		norms:    make(map[normKey]*normEntry),
	}
}

// reserve sizes the maps of an empty cache for a corpus of records
// serialised records holding values attribute values in all, the most
// distinct texts it can add: a value entry per value, and a normalised
// entry and a profile per value and per record. A cache that already
// holds entries keeps its maps.
func (c *textCache) reserve(records, values int) {
	c.valMu.Lock()
	if len(c.vals) == 0 {
		c.vals = make(map[string]*valEntry, values)
	}
	c.valMu.Unlock()
	c.normMu.Lock()
	if len(c.norms) == 0 {
		c.norms = make(map[normKey]*normEntry, records+values)
	}
	c.normMu.Unlock()
	c.profiles.Reserve(records + values)
}

// sharedText is the process-wide cache over textsim.Shared().
var sharedText = newTextCache(textsim.Shared())

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
	// versionToks holds the version-shaped fields of the value
	// (versionToken), in order.
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

// valEntryFor returns the memoised capability-independent entry for a raw
// attribute value.
func (c *textCache) valEntryFor(v string) *valEntry {
	c.valMu.RLock()
	e := c.vals[v]
	c.valMu.RUnlock()
	if e != nil {
		return e
	}
	e = c.buildValEntry(v)
	c.valMu.Lock()
	if q, ok := c.vals[v]; ok {
		e = q
	} else {
		c.vals[v] = e
	}
	c.valMu.Unlock()
	return e
}

// buildValEntry derives a value's entry from its profile's lowercased
// form: strings.ToLower commutes with strings.TrimSpace and
// strings.Fields (no space rune has a case), so neither is recomputed.
func (c *textCache) buildValEntry(v string) *valEntry {
	prof := c.profiles.Get(v)
	e := &valEntry{
		prof:      prof,
		trimmed:   strings.TrimSpace(v),
		lowerTrim: strings.TrimSpace(prof.Lower),
	}
	e.looseNum, e.looseOK = parseLooseNumber(prof.Lower)
	for f, i := nextField(prof.Lower, 0); f != ""; f, i = nextField(prof.Lower, i) {
		if t, ok := versionToken(f); ok {
			e.versionToks = append(e.versionToks, t)
		}
		// Identifier candidates: the split/trim/shape part of
		// appendRareTokens, which does not depend on capabilities or
		// corpus statistics.
		if t := trimIdent(f); t != "" && isIdentifierToken(t) {
			e.identCands = append(e.identCands, identCand{
				tok: t,
				uA:  knowsU("rare:", t, "#a"),
				uB:  knowsU("rare:", t, "#b"),
			})
		}
	}
	return e
}

// nextField returns the first field of s at or after byte i, splitting
// where strings.Fields does (at unicode.IsSpace runes; an invalid byte is
// not a space), and the index just past it; f is "" when none is left.
func nextField(s string, i int) (f string, end int) {
	for i < len(s) {
		w := spaceAt(s, i)
		if w == 0 {
			break
		}
		i += w
	}
	start := i
	for i < len(s) && spaceAt(s, i) == 0 {
		if s[i] < utf8.RuneSelf {
			i++
		} else {
			_, w := utf8.DecodeRuneInString(s[i:])
			i += w
		}
	}
	return s[start:i], i
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceAt returns the width of the space rune at s[i], or 0 when s[i]
// does not start one.
func spaceAt(s string, i int) int {
	if c := s[i]; c < utf8.RuneSelf {
		if asciiSpace[c] {
			return 1
		}
		return 0
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	if unicode.IsSpace(r) {
		return w
	}
	return 0
}

// normKey keys the normalised-text cache: normalizeText depends on the
// text and on the Normalization and Semantics capabilities only. Entries
// joinNorm composes for serialised records are keyed apart (joined), as
// they carry neither toks nor commaLast and must never serve as a
// value's entry.
type normKey struct {
	norm, sem float64
	text      string
	joined    bool
}

// normEntry caches one normalizeText result in the three shapes its
// consumers need.
type normEntry struct {
	// toks is the normalizeText output, duplicates and order preserved;
	// nil in a serialised record's entry (joinNorm).
	toks []string
	// sorted holds the unique tokens in lexicographic order; overlap
	// scores and the encoder's both/only features merge-join over it.
	sorted []string
	// commaLast is the last normalised token followed by a comma when
	// the model kept the text's last field raw, and "" otherwise: what
	// that field reads as inside a serialised record (see
	// normalizeFields).
	commaLast string
	// joined memoises joinedGrams.
	joined atomic.Pointer[textsim.Trigrams]
}

// joinedGrams returns the trigram set of strings.Join(toks, " "), the
// input of the character-gram comparison in attrSimilarityE and read
// nowhere else, so it is built on first use: the encoder's normalised
// view of a whole serialised record never needs it. Racing first users
// may each build one; every set is the same, and the first published
// wins.
func (e *normEntry) joinedGrams() *textsim.Trigrams {
	if g := e.joined.Load(); g != nil {
		return g
	}
	g := textsim.JoinedTrigrams(e.toks)
	if e.joined.CompareAndSwap(nil, g) {
		return g
	}
	return e.joined.Load()
}

// normEntryFor returns the memoised normalised form of text under the
// model's capabilities.
func (c *textCache) normEntryFor(text string, caps Capabilities) *normEntry {
	key := normKey{norm: caps.Normalization, sem: caps.Semantics, text: text}
	c.normMu.RLock()
	e := c.norms[key]
	c.normMu.RUnlock()
	if e != nil {
		return e
	}
	toks, rawLast := normalizeFields(text, caps)
	e = &normEntry{
		toks:   toks,
		sorted: sortedUniqueTokens(toks),
	}
	if rawLast != "" {
		e.commaLast = rawLast + ","
	}
	return c.publishNorm(key, e)
}

// publishNorm stores e as the entry of key unless a racing builder
// stored one first, and returns the stored entry.
func (c *textCache) publishNorm(key normKey, e *normEntry) *normEntry {
	c.normMu.Lock()
	if q, ok := c.norms[key]; ok {
		e = q
	} else {
		c.norms[key] = e
	}
	c.normMu.Unlock()
	return e
}

// composes reports whether a record serialised under opts is composed
// from its values' entries: only under the default separator, whose
// comma is the one normalizeFields and joinNorm account for and which
// textsim.Tokens splits at without a token of its own. Any other
// separator derives the serialisation's entries from its text.
func composes(opts record.SerializeOptions) bool {
	return opts.Sep() == record.DefaultSeparator
}

// recordEntries returns the profile and the normalised entry of text, the
// serialisation of r under opts, from the cache, composing a missing one
// from r's value entries instead of deriving it from text again (see
// recordProfile and joinNorm). Either way it returns what
// c.profiles.Get(text) and c.normEntryFor(text, caps) would.
func (c *textCache) recordEntries(r record.Record, opts record.SerializeOptions, text string, caps Capabilities) (*textsim.Profile, *normEntry) {
	if !composes(opts) {
		return c.profiles.Get(text), c.normEntryFor(text, caps)
	}
	key := normKey{norm: caps.Normalization, sem: caps.Semantics, text: text, joined: true}
	c.normMu.RLock()
	norm := c.norms[key]
	c.normMu.RUnlock()
	if norm == nil {
		var valStack [16]string
		norm = c.publishNorm(key, c.joinNorm(record.AppendOrdered(valStack[:0], r, opts), caps))
	}
	return c.recordProfile(r, opts, text), norm
}

// recordProfile returns the profile of text, the serialisation of r
// under opts, composing a missing one from its values' profiles when
// composes(opts) (see textsim.ProfileCache.AddJoined).
func (c *textCache) recordProfile(r record.Record, opts record.SerializeOptions, text string) *textsim.Profile {
	if !composes(opts) {
		return c.profiles.Get(text)
	}
	if p := c.profiles.Lookup(text); p != nil {
		return p
	}
	var valStack [16]string
	var stack [16]*textsim.Profile
	parts := stack[:0]
	for _, v := range record.AppendOrdered(valStack[:0], r, opts) {
		parts = append(parts, c.valEntryFor(v).prof)
	}
	return c.profiles.AddJoined(text, parts)
}

// joinNorm builds the normalised entry of vals joined by ", " from the
// values' own entries. The encoder reads only a serialised record's
// sorted tokens, so the entry holds no token list, and the joined tokens
// are sorted in a scratch buffer.
func (c *textCache) joinNorm(vals []string, caps Capabilities) *normEntry {
	var stack [128]string
	return &normEntry{sorted: slices.Clone(sortUnique(c.appendJoinedNorm(stack[:0], vals, caps)))}
}

// appendJoinedNorm appends to dst normalizeText of vals joined by ", ",
// from the values' entries: their normalised tokens in order, where the
// last field of each value but the last that does not end in a space
// takes the separator's comma (normalizeFields).
func (c *textCache) appendJoinedNorm(dst []string, vals []string, caps Capabilities) []string {
	for i, v := range vals {
		ne := c.normEntryFor(c.valEntryFor(v).lowerTrim, caps)
		if ne.commaLast != "" && i < len(vals)-1 && !endsInSpace(v) {
			dst = append(dst, ne.toks[:len(ne.toks)-1]...)
			dst = append(dst, ne.commaLast)
			continue
		}
		dst = append(dst, ne.toks...)
	}
	return dst
}

// endsInSpace reports whether v's last rune is a space; strings.Fields
// splits there, so a following separator does not touch v's last field.
func endsInSpace(v string) bool {
	r, _ := utf8.DecodeLastRuneInString(v)
	return unicode.IsSpace(r)
}

// sortedUniqueTokens returns the distinct tokens in lexicographic order.
func sortedUniqueTokens(toks []string) []string {
	if len(toks) == 0 {
		return nil
	}
	var stack [64]string
	return slices.Clone(sortUnique(append(stack[:0], toks...)))
}

// sortUnique sorts toks in place and returns its distinct tokens, a
// prefix of toks.
func sortUnique(toks []string) []string {
	slices.Sort(toks)
	return slices.Compact(toks)
}
