package lm

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/record"
	"repro/internal/textsim"
)

// Evidence is the set of matching signals a zero-shot model extracts from a
// record pair. Which signals are usable, and how reliably, depends on the
// model's Capabilities.
type Evidence struct {
	// AttrSims holds one similarity per aligned attribute position.
	AttrSims []float64
	// AttrWeights holds the capability-dependent weight per attribute.
	AttrWeights []float64
	// Conflict is the strength of discriminative-token disagreement
	// (distinct rare tokens on each side), the signal that separates hard
	// negatives such as "camera model A vs camera model B".
	Conflict float64
	// IdentifierMatch is 1 when both sides share a rare identifier token
	// (model number, phone number) — near-conclusive positive evidence
	// that attention-capable models exploit.
	IdentifierMatch float64
	// MinShortSim is the lowest similarity among short informative
	// attributes (names, titles). A careful reader vetoes a match when one
	// short field clearly disagrees, however well the rest align.
	MinShortSim float64
	// ContrastConflict is 1 when the two records carry different members
	// of a known variant family (editions, colours, platforms), a
	// semantics-gated signal.
	ContrastConflict float64
	// YearConflict is 1 when an aligned attribute holds two different
	// calendar years — identity-level disagreement for a numerate reader
	// (different publication year, different movie release).
	YearConflict float64
	// VersionConflict is 1 when aligned text values carry different
	// version numbers ("office 4.0" vs "office 5.5") — the discriminator
	// for software hard negatives. VersionMatch is 1 when they agree.
	VersionConflict float64
	// VersionMatch complements VersionConflict (see above).
	VersionMatch float64
	// Score is the aggregate weighted similarity in [0, 1].
	Score float64
}

// extractEvidence computes the capability-gated evidence for a pair,
// resolving its values through c. The idf weighter models corpus-wide
// token-rarity knowledge; it may be nil, in which case uniform token
// weights are used.
//
// The central mechanism: a capable reader weights attributes by
// *informativeness* (short identifier-bearing values count, long marketing
// copy is skimmed), while a weak reader weights by sheer length — it reads
// everything with equal care, so noise drowns signal. The Attention
// capability interpolates between the two weightings.
func extractEvidence(c *textCache, p record.Pair, caps Capabilities, idf *textsim.Weighter) Evidence {
	return extractEvidenceInto(nil, c, p, caps, idf)
}

// evidenceScratch holds the per-pair slices of extractEvidenceInto, so a
// caller that reads the Evidence before scoring its next pair allocates
// none of them.
type evidenceScratch struct {
	sims, weights         []float64
	leftRare, rightRare   []string
	leftProfs, rightProfs []*textsim.Profile
}

var evidencePool = sync.Pool{New: func() any { return new(evidenceScratch) }}

// extractEvidenceInto is extractEvidence with its slices taken from sc;
// the returned AttrSims and AttrWeights alias sc and are valid until its
// next use. A nil sc allocates them, for callers that keep the Evidence.
func extractEvidenceInto(sc *evidenceScratch, c *textCache, p record.Pair, caps Capabilities, idf *textsim.Weighter) Evidence {
	n := len(p.Left.Values)
	if len(p.Right.Values) < n {
		n = len(p.Right.Values)
	}
	if sc == nil {
		sc = &evidenceScratch{}
	}
	ev := Evidence{
		AttrSims:    grow(sc.sims, n),
		AttrWeights: grow(sc.weights, n),
	}
	leftRare, rightRare := sc.leftRare[:0], sc.rightRare[:0]
	leftProfs, rightProfs := grow(sc.leftProfs, n), grow(sc.rightProfs, n)
	ev.MinShortSim = 1
	for i := 0; i < n; i++ {
		le, re := c.valEntryFor(p.Left.Values[i]), c.valEntryFor(p.Right.Values[i])
		ev.AttrSims[i] = attrSimilarityE(c, le, re, caps, idf)
		ev.AttrWeights[i] = attrWeightE(le, re, caps, idf)
		leftRare = appendRareTokens(leftRare, le, caps, idf)
		rightRare = appendRareTokens(rightRare, re, caps, idf)
		leftProfs[i] = le.prof
		rightProfs[i] = re.prof
		// Year disagreement on an aligned attribute.
		if le.looseOK && re.looseOK &&
			isYearLike(le.looseNum) && isYearLike(re.looseNum) && le.looseNum != re.looseNum {
			ev.YearConflict = 1
		}
		// Version agreement/disagreement inside aligned text values.
		if !le.looseOK && !re.looseOK {
			lvs, rvs := le.versionToks, re.versionToks
			if len(lvs) > 0 && len(rvs) > 0 {
				shared := false
				for _, a := range lvs {
					for _, b := range rvs {
						if a == b {
							shared = true
						}
					}
				}
				if shared {
					ev.VersionMatch = 1
				} else {
					ev.VersionConflict = 1
				}
			}
		}
		// Track the weakest short textual attribute: both sides present,
		// short enough to read precisely, not a pure number.
		lt, rt := le.prof.Tokens, re.prof.Tokens
		if len(lt) > 0 && len(rt) > 0 && len(lt) <= 12 && len(rt) <= 12 && !le.looseOK && !re.looseOK {
			if ev.AttrSims[i] < ev.MinShortSim {
				ev.MinShortSim = ev.AttrSims[i]
			}
		}
	}
	ev.Conflict, ev.IdentifierMatch = rareAgreement(leftRare, rightRare)
	if contrastConflictProfiles(leftProfs, rightProfs, caps.Semantics) {
		ev.ContrastConflict = 1
	}
	*sc = evidenceScratch{
		sims: ev.AttrSims, weights: ev.AttrWeights,
		leftRare: leftRare, rightRare: rightRare,
		leftProfs: leftProfs, rightProfs: rightProfs,
	}

	var num, den float64
	for i := 0; i < n; i++ {
		num += ev.AttrWeights[i] * ev.AttrSims[i]
		den += ev.AttrWeights[i]
	}
	if den > 0 {
		ev.Score = num / den
	}
	return ev
}

// grow returns s resized to n, reusing its backing array when it is
// large enough; the elements are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// attrSimilarityE compares one aligned attribute value pair, given as
// value entries of c, under the model's capabilities.
func attrSimilarityE(c *textCache, va, vb *valEntry, caps Capabilities, idf *textsim.Weighter) float64 {
	if va.trimmed == "" && vb.trimmed == "" {
		return 0.5 // both missing: uninformative
	}
	if va.trimmed == "" || vb.trimmed == "" {
		return 0.4 // one missing: weak negative evidence
	}

	// Numeric path: a numerate model parses both sides and compares values;
	// an innumerate model falls back to string comparison of raw formats.
	if va.looseOK && vb.looseOK {
		numeric := numericCloseness(va.looseNum, vb.looseNum)
		// Year-like integers carry identity semantics: a numerate
		// reader knows 1999 ≠ 2003 even though they are relatively
		// close; equality is what matters.
		if isYearLike(va.looseNum) && isYearLike(vb.looseNum) {
			if va.looseNum == vb.looseNum {
				numeric = 1
			} else {
				numeric = 0.25
			}
		}
		str := textsim.Levenshtein(va.lowerTrim, vb.lowerTrim)
		return caps.Numeracy*numeric + (1-caps.Numeracy)*str
	}

	// normalizeText lowercases first, so the lowercased value has the
	// trimmed value's normalised form, and lowercasing it again is free.
	la := c.normEntryFor(va.lowerTrim, caps)
	lb := c.normEntryFor(vb.lowerTrim, caps)

	// Token-set similarity with attention-gated IDF weighting.
	tokSim := weightedOverlap(la, lb, caps.Attention, idf)

	// Character-level similarity catches typos that token matching misses.
	charSim := textsim.QGramJaccardT(la.joinedGrams(), lb.joinedGrams())

	sim := 0.65*tokSim + 0.35*charSim

	// Long noisy fields: a robust model skims them for the informative
	// tokens (the IDF-weighted overlap above already does that); a
	// non-robust model is swamped by the raw text and effectively compares
	// everything, so its perceived similarity collapses toward the raw
	// unweighted overlap.
	if len(la.toks) > 8 || len(lb.toks) > 8 {
		raw := textsim.TokenJaccardP(va.prof, vb.prof)
		sim = caps.Robustness*sim + (1-caps.Robustness)*raw
	}
	return sim
}

// weightedOverlap computes a soft token-overlap score where token weights
// interpolate between uniform (attention = 0) and IDF (attention = 1). The
// unique tokens of each side are merge-joined over the cached sorted
// slices; the sums match the old map-based implementation (whose iteration
// order was unspecified) up to float addition order.
func weightedOverlap(a, b *normEntry, attention float64, idf *textsim.Weighter) float64 {
	if len(a.toks) == 0 && len(b.toks) == 0 {
		return 0.5
	}
	if len(a.toks) == 0 || len(b.toks) == 0 {
		return 0
	}
	weight := func(t string) float64 {
		w := 1.0
		if idf != nil {
			w = (1 - attention) + attention*idf.IDF(t)
		}
		return w
	}
	var inter, union float64
	sa, sb := a.sorted, b.sorted
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] < sb[j]:
			union += weight(sa[i])
			i++
		case sa[i] > sb[j]:
			union += weight(sb[j])
			j++
		default:
			w := weight(sa[i])
			union += w
			inter += w
			i++
			j++
		}
	}
	for ; i < len(sa); i++ {
		union += weight(sa[i])
	}
	for ; j < len(sb); j++ {
		union += weight(sb[j])
	}
	if union == 0 {
		return 0
	}
	return inter / union
}

// attrWeightE scores how much one aligned attribute, given as cached value
// entries, should contribute.
//
// The expert weighting favours short, token-rare values (names, titles,
// identifiers) and discounts long free text and missing values; the naive
// weighting is proportional to text length (a weak reader gives long
// fields attention proportional to their size). caps.Attention
// interpolates, and caps.Robustness additionally controls how firmly
// missing values are discounted.
func attrWeightE(va, vb *valEntry, caps Capabilities, idf *textsim.Weighter) float64 {
	ta, tb := va.prof.Tokens, vb.prof.Tokens
	la, lb := len(ta), len(tb)
	avg := float64(la+lb) / 2

	if avg == 0 {
		return 0.05 // both missing
	}
	if la == 0 || lb == 0 {
		// One side missing: the claim is unverifiable. A careful reader
		// weights the absence by how much the present side *would have*
		// corroborated — a missing title is damning, a missing price is
		// noise. A weak reader mostly skips the blank.
		present := va
		if la == 0 {
			present = vb
		}
		wouldBe := presentWeightP(present.prof, idf)
		return (1-caps.Attention)*0.25 + caps.Attention*0.85*wouldBe
	}

	// Naive weight: grows with length, saturating.
	naive := 0.3 + 1.5*(avg/(avg+3))

	// Expert weight: mean informativeness of the tokens, dampened for long
	// fields (skim), boosted for identifier-bearing values.
	info := 0.0
	if idf != nil {
		sum, cnt := 0.0, 0
		for _, t := range ta {
			sum += idf.IDF(t)
			cnt++
		}
		for _, t := range tb {
			sum += idf.IDF(t)
			cnt++
		}
		if cnt > 0 {
			info = sum / float64(cnt)
		}
	} else {
		info = 1.5
	}
	lengthDamp := 1.0
	if avg > 6 {
		lengthDamp = 6 / avg // skim long fields
	}
	expert := 0.2 + 0.45*info*lengthDamp
	for _, t := range ta {
		if looksDiscriminative(t) {
			expert += 0.5
			break
		}
	}

	return (1-caps.Attention)*naive + caps.Attention*expert
}

// presentWeightP is the expert informativeness of a single value's
// profile, used to weight one-side-missing attributes by the evidence they
// fail to provide.
func presentWeightP(p *textsim.Profile, idf *textsim.Weighter) float64 {
	toks := p.Tokens
	if len(toks) == 0 {
		return 0.05
	}
	info := 1.5
	if idf != nil {
		sum := 0.0
		for _, t := range toks {
			sum += idf.IDF(t)
		}
		info = sum / float64(len(toks))
	}
	avg := float64(len(toks))
	lengthDamp := 1.0
	if avg > 6 {
		lengthDamp = 6 / avg
	}
	w := 0.2 + 0.45*info*lengthDamp
	for _, t := range toks {
		if looksDiscriminative(t) {
			w += 0.5
			break
		}
	}
	return w
}

// appendRareTokens appends the discriminative tokens of a cached value
// entry to dst: tokens that are rare under the IDF model and look like
// identifiers (contain digits or are long alphanumerics). Only
// attention-capable models extract them reliably: the returned set is
// filtered through the capability gate.
//
// The whitespace split, punctuation trim and identifier-shape filter are
// precomputed in the entry (they depend only on the value); the IDF-rarity
// and attention gates run per call because the IDF table mutates as
// matchers observe corpora. Splitting happens on whitespace (not
// punctuation) so composite identifiers like "xy-12345" and versions like
// "4.0" survive as single tokens.
func appendRareTokens(dst []string, e *valEntry, caps Capabilities, idf *textsim.Weighter) []string {
	for _, c := range e.identCands {
		if idf != nil && idf.IDF(c.tok) < 2.0 {
			continue // actually a common token
		}
		// The attention gate, on the entry's two precomputed draws.
		if !(c.uA < caps.Attention || c.uB < caps.Attention) {
			continue // model fails to attend to this identifier
		}
		dst = append(dst, c.tok)
	}
	return dst
}

// looksDiscriminative reports whether a token has identifier shape: it
// mixes digits with letters (model numbers), contains a version dot
// ("4.0"), or is a long number (phone numbers).
func looksDiscriminative(t string) bool {
	hasDigit, hasAlpha, hasDot := false, false, false
	for _, r := range t {
		switch {
		case r >= '0' && r <= '9':
			hasDigit = true
		case r == '.':
			hasDot = true
		default:
			hasAlpha = true
		}
	}
	if hasDigit && hasAlpha {
		return true
	}
	if hasDigit && (hasDot || len(t) >= 3) {
		return true
	}
	return false
}

// isIdentifierToken is the stricter gate used for the conflict/identifier
// signals: mixed alphanumerics always qualify (model numbers, paper ids);
// pure numbers only qualify with at least four digits and a non-year value
// (phone groups, street numbers — but not years, prices, or durations,
// whose agreement is common across distinct entities).
func isIdentifierToken(t string) bool {
	digits := 0
	hasAlpha := false
	for _, r := range t {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' || r == '-' || r == '/' || r == ':':
			// separators (":" covers clock-style durations)
		default:
			hasAlpha = true
		}
	}
	if digits == 0 {
		return false
	}
	if hasAlpha {
		return true
	}
	// Pure numbers: quantities (decimals, prices) and years are not
	// identifiers; long digit groups (phones, street numbers) are.
	if strings.Contains(t, ".") {
		return false
	}
	if v, ok := parseLooseNumber(t); ok && isYearLike(v) {
		return false
	}
	return digits >= 4
}

// versionToken reports whether f, one field of a lowercased mixed text
// value, is version-shaped ("4.0", "2.5.1"), and returns it trimmed.
func versionToken(f string) (string, bool) {
	t := versionCut.trim(f)
	digits, dots, other := 0, 0, 0
	for _, r := range t {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.':
			dots++
		default:
			other++
		}
	}
	return t, other == 0 && dots >= 1 && digits >= 2 && digits <= 4 && !strings.HasPrefix(f, "$")
}

// isYearLike reports whether a parsed number looks like a calendar year.
func isYearLike(v float64) bool {
	return v == math.Trunc(v) && v >= 1900 && v <= 2035
}

// rareAgreement measures identifier-level agreement between the two
// discriminative-token sets: conflict is 1 when both sides carry
// identifiers and none are shared; identifierMatch is 1 when at least one
// is shared.
func rareAgreement(left, right []string) (conflict, identifierMatch float64) {
	if len(left) == 0 || len(right) == 0 {
		return 0, 0
	}
	shared := 0
	// Identifier lists are short, so a scan costs less than building a
	// set per pair.
	for _, t := range right {
		for _, u := range left {
			if t == u {
				shared++
				break
			}
		}
	}
	total := len(left)
	if len(right) > total {
		total = len(right)
	}
	if shared > 0 {
		identifierMatch = 1
	}
	return 1 - float64(shared)/float64(total), identifierMatch
}

// parseLooseNumber parses numeric strings with currency symbols, unit
// suffixes and thousands separators, reporting success.
func parseLooseNumber(s string) (float64, bool) {
	clean := strings.TrimSpace(strings.ToLower(s))
	clean = strings.TrimLeft(clean, "$€£ ")
	// Once the commas go and the result is trimmed, the text starts at
	// its first byte that is neither a comma nor a space (the suffix
	// trims can only empty it), so text that cannot parse there is
	// refused before ReplaceAll copies it.
	if !textsim.MayStartFloat(strings.TrimLeftFunc(clean, isCommaOrSpace)) {
		return 0, false
	}
	clean = strings.ReplaceAll(clean, ",", "")
	for _, suffix := range []string{" usd", "usd", " dollars", "%", " min", " minutes"} {
		clean = strings.TrimSuffix(clean, suffix)
	}
	clean = strings.TrimSpace(clean)
	if clean == "" {
		return 0, false
	}
	// Durations like "3:45" parse as total seconds — the reconciliation a
	// numerate reader performs between m:ss and raw-second listings.
	if mins, secs, ok := parseDuration(clean); ok {
		return float64(mins*60 + secs), true
	}
	if !textsim.MayStartFloat(clean) {
		return 0, false // spares ParseFloat's error allocation
	}
	v, err := strconv.ParseFloat(clean, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func isCommaOrSpace(r rune) bool { return r == ',' || unicode.IsSpace(r) }

// parseDuration parses "m:ss" clock-style durations.
func parseDuration(s string) (mins, secs int, ok bool) {
	i := strings.IndexByte(s, ':')
	if i <= 0 || i == len(s)-1 {
		return 0, 0, false
	}
	m, errM := strconv.Atoi(s[:i])
	sec, errS := strconv.Atoi(s[i+1:])
	if errM != nil || errS != nil || sec >= 60 || m < 0 || sec < 0 {
		return 0, 0, false
	}
	return m, sec, true
}

// numericCloseness converts a relative difference into a similarity.
func numericCloseness(a, b float64) float64 {
	if a == b {
		return 1
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 1
	}
	return math.Max(0, 1-math.Abs(a-b)/den)
}
