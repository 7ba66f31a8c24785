package datasets

import (
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// abbrevMap maps canonical words to the abbreviated surface forms that the
// noisier "view" of an entity may use. It is the inverse of the knowledge
// base the LM substrate normalises with, so semantic capability is what
// reverses these corruptions — the mechanism that separates the model
// tiers on abbreviation-heavy datasets.
var abbrevMap = map[string][]string{
	"street":         {"st", "st."},
	"avenue":         {"ave", "ave."},
	"boulevard":      {"blvd", "blvd."},
	"road":           {"rd", "rd."},
	"drive":          {"dr", "dr."},
	"suite":          {"ste"},
	"international":  {"intl", "intl."},
	"conference":     {"conf"},
	"proceedings":    {"proc", "proc."},
	"transactions":   {"trans", "trans."},
	"journal":        {"j.", "jour"},
	"symposium":      {"symp"},
	"management":     {"mgmt"},
	"systems":        {"sys"},
	"database":       {"db"},
	"databases":      {"dbs"},
	"engineering":    {"eng", "engr"},
	"television":     {"tv"},
	"camera":         {"cam"},
	"wireless":       {"wifi", "wi-fi"},
	"black":          {"blk"},
	"white":          {"wht"},
	"silver":         {"slv"},
	"with":           {"w/"},
	"pack":           {"pk"},
	"edition":        {"ed", "ed."},
	"volume":         {"vol", "vol."},
	"version":        {"v.", "ver"},
	"windows":        {"win"},
	"software":       {"sw"},
	"professional":   {"pro"},
	"featuring":      {"feat", "feat.", "ft."},
	"original":       {"orig"},
	"soundtrack":     {"ost", "sndtrk"},
	"deluxe":         {"dlx"},
	"remastered":     {"remaster", "rmstr"},
	"director":       {"dir", "dir."},
	"minutes":        {"min"},
	"india pale ale": {"ipa"},
	"company":        {"co", "co."},
	"brewery":        {"brwy"},
	"brewing":        {"brw"},
	"and":            {"&", "+"},
	"incorporated":   {"inc", "inc."},
	"limited":        {"ltd"},
	"corporation":    {"corp"},
}

// abbrevPhrases lists the multi-word abbrevMap keys in sorted order. The
// phrase pass walks this slice rather than the map, so its draws never
// follow Go's random map iteration order.
var abbrevPhrases = func() []string {
	var out []string
	for canon := range abbrevMap {
		if strings.Contains(canon, " ") {
			out = append(out, canon)
		}
	}
	sort.Strings(out)
	return out
}()

// CorruptionProfile controls how aggressively a dataset's second "view" of
// an entity diverges from the first. Each rate is a per-opportunity
// probability; the profile is the dataset's difficulty dial.
type CorruptionProfile struct {
	// Abbreviate replaces canonical words with abbreviations.
	Abbreviate float64
	// Typo introduces a character-level edit into a token.
	Typo float64
	// DropToken removes a token.
	DropToken float64
	// AddNoise appends marketing filler tokens to a value.
	AddNoise float64
	// NoiseTokens is how many filler tokens an AddNoise event appends.
	NoiseTokens int
	// Reorder shuffles the token order of a value.
	Reorder float64
	// CaseFlip upper-cases a token (surface-form noise).
	CaseFlip float64
	// NumberFormat reformats numeric values ($12.99 → 12.99 USD, 1999 → 99).
	NumberFormat float64
	// MissingValue blanks an attribute entirely.
	MissingValue float64
	// Truncate keeps only a prefix of a long value.
	Truncate float64
}

// corruptValue applies the profile to one attribute value, using rng for
// all randomness. Numeric-looking values only receive number formatting
// and missingness; text values receive the full operator set.
func corruptValue(v string, prof CorruptionProfile, rng *stats.RNG) string {
	if v == "" {
		return v
	}
	if rng.Bool(prof.MissingValue) {
		return ""
	}
	if isNumericValue(v) {
		if rng.Bool(prof.NumberFormat) {
			return reformatNumber(v, rng)
		}
		return v
	}

	var buf [32]string
	toks := appendFields(buf[:0], v)
	// joined is v with its whitespace normalised to single spaces. Most
	// values already are, and then joined is v itself; while no operator
	// edits a token, joined is also the result.
	joined := v
	if !spaceJoined(v, toks) {
		joined = strings.Join(toks, " ")
	}
	edited := false

	// Abbreviation pass operates on multi-word phrases first, then tokens.
	// The value is re-tokenised only when a phrase was replaced.
	for _, canon := range abbrevPhrases {
		if strings.Contains(joined, canon) && rng.Bool(prof.Abbreviate) {
			abbrs := abbrevMap[canon]
			joined = strings.Replace(joined, canon, abbrs[rng.Intn(len(abbrs))], 1)
			edited = true
		}
	}
	if edited {
		toks = appendFields(toks[:0], joined)
	}
	for i, t := range toks {
		if abbrs, ok := abbrevMap[t]; ok && rng.Bool(prof.Abbreviate) {
			toks[i] = abbrs[rng.Intn(len(abbrs))]
			edited = true
		}
	}

	// Token drops (never drop below one token).
	if len(toks) > 1 && rng.Bool(prof.DropToken) {
		i := rng.Intn(len(toks))
		toks = append(toks[:i], toks[i+1:]...)
		edited = true
	}

	// Typos.
	for i := range toks {
		if rng.Bool(prof.Typo) {
			toks[i] = applyTypo(toks[i], rng)
			edited = true
		}
	}

	// Case flips.
	for i := range toks {
		if rng.Bool(prof.CaseFlip) {
			toks[i] = strings.ToUpper(toks[i])
			edited = true
		}
	}

	// Reorder.
	if len(toks) > 2 && rng.Bool(prof.Reorder) {
		rng.Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
		edited = true
	}

	// Marketing noise.
	if rng.Bool(prof.AddNoise) {
		n := prof.NoiseTokens
		if n <= 0 {
			n = 3
		}
		for k := 0; k < n; k++ {
			toks = append(toks, marketingFiller[rng.Intn(len(marketingFiller))])
		}
		edited = true
	}

	// Truncation of long values.
	if len(toks) > 6 && rng.Bool(prof.Truncate) {
		toks = toks[:4+rng.Intn(3)]
		edited = true
	}

	if !edited {
		return joined
	}
	return strings.Join(toks, " ")
}

// appendFields appends the fields of v, split exactly as strings.Fields
// splits them, to dst. ASCII values are split in place, so a caller's stack
// buffer holds the tokens of a typical value without a heap slice.
func appendFields(dst []string, v string) []string {
	n0, start := len(dst), -1
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c >= utf8.RuneSelf {
			return append(dst[:n0], strings.Fields(v)...)
		}
		space := c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r')
		if space && start >= 0 {
			dst = append(dst, v[start:i])
			start = -1
		} else if !space && start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, v[start:])
	}
	return dst
}

// spaceJoined reports whether v is exactly its fields joined by single
// spaces, that is whether strings.Join(toks, " ") would equal v.
func spaceJoined(v string, toks []string) bool {
	if len(toks) == 0 {
		return v == ""
	}
	n := len(toks) - 1
	for _, t := range toks {
		n += len(t)
	}
	if n != len(v) {
		return false
	}
	pos := 0
	for i, t := range toks {
		if i > 0 {
			if v[pos] != ' ' {
				return false
			}
			pos++
		}
		pos += len(t)
	}
	return true
}

// applyTypo performs one random character edit (swap, delete or duplicate).
// Digit-bearing tokens (model numbers, prices, phone digits) are left
// alone: sellers copy identifiers from spec sheets, so typos concentrate
// in prose.
func applyTypo(tok string, rng *stats.RNG) string {
	for _, r := range tok {
		if r >= '0' && r <= '9' {
			return tok
		}
	}
	rs := []rune(tok)
	if len(rs) < 3 {
		return tok
	}
	i := 1 + rng.Intn(len(rs)-2)
	switch rng.Intn(3) {
	case 0: // swap adjacent
		rs[i], rs[i+1] = rs[i+1], rs[i]
	case 1: // delete
		rs = append(rs[:i], rs[i+1:]...)
	default: // duplicate
		rs = append(rs[:i+1], rs[i:]...)
	}
	return string(rs)
}

// isNumericValue reports whether a value is predominantly numeric (price,
// year, phone, rating).
func isNumericValue(v string) bool {
	digits, others := 0, 0
	for i, r := range v {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '.' || r == '$' || r == '-' || r == ' ' || r == '(' || r == ')' || r == '%' || r == ',':
			// separators common in numeric fields
		default:
			others++
			// Each byte left adds at most one digit: once the digits
			// cannot catch up, the answer is known.
			if others > digits+len(v)-i-1 {
				return false
			}
		}
	}
	return digits > 0 && digits >= others
}

// reformatNumber rewrites a numeric surface form without changing the
// quantity. Currency restyling only applies to values that already look
// like prices (a currency symbol or a decimal point); plain integers such
// as years keep their shape.
func reformatNumber(v string, rng *stats.RNG) string {
	clean := strings.TrimSpace(v)
	priceLike := strings.HasPrefix(clean, "$") || strings.Contains(clean, ".")
	switch rng.Intn(3) {
	case 0:
		if !priceLike {
			return clean
		}
		if strings.HasPrefix(clean, "$") {
			return strings.TrimPrefix(clean, "$") + " USD"
		}
		return "$" + clean
	case 1:
		return strings.ReplaceAll(clean, " ", "")
	default:
		if strings.HasPrefix(clean, "$") {
			return strings.TrimPrefix(clean, "$")
		}
		return clean
	}
}
