package lm

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/textsim"
)

// knowledgeBase is the world-knowledge dictionary that zero-shot models
// draw on: abbreviation expansions, synonyms and alias pairs spanning the
// benchmark domains. A model with Semantics capability c "knows" a
// deterministic pseudo-random c-fraction of the entries (see knows), so
// stronger models normalise more aliases and therefore see through more
// surface variation — without any per-dataset tuning.
var knowledgeBase = map[string]string{
	// Address abbreviations (restaurant datasets).
	"st":    "street",
	"st.":   "street",
	"ave":   "avenue",
	"ave.":  "avenue",
	"blvd":  "boulevard",
	"blvd.": "boulevard",
	"rd":    "road",
	"rd.":   "road",
	"dr":    "drive",
	"dr.":   "drive",
	"e":     "east",
	"w":     "west",
	"n":     "north",
	"s":     "south",
	"ste":   "suite",

	// Citation venue aliases (DBLP/ACM/Google Scholar).
	"sigmod": "sigmod conference",
	"vldb":   "very large data bases",
	"pvldb":  "very large data bases",
	"icde":   "international conference on data engineering",
	"tods":   "acm transactions on database systems",
	"kdd":    "knowledge discovery and data mining",
	"intl":   "international",
	"conf":   "conference",
	"proc":   "proceedings",
	"proc.":  "proceedings",
	"trans":  "transactions",
	"trans.": "transactions",
	"j.":     "journal",
	"jour":   "journal",
	"symp":   "symposium",
	"rec":    "record",
	"mgmt":   "management",
	"sys":    "systems",
	"db":     "database",
	"dbs":    "databases",
	"eng":    "engineering",
	"engr":   "engineering",
	"tech":   "technology",
	"univ":   "university",

	// Product / electronics abbreviations and synonyms.
	"smartphone":  "phone",
	"smartphones": "phones",
	"cell":        "mobile",
	"cellphone":   "phone",
	"cellphones":  "phones",
	"unlocked":    "sim-free",
	"tv":          "television",
	"cam":         "camera",
	"pc":          "computer",
	"nb":          "notebook",
	"hd":          "high definition",
	"hdd":         "hard drive",
	"ssd":         "solid state drive",
	"gb":          "gigabyte",
	"tb":          "terabyte",
	"mb":          "megabyte",
	"in":          "inch",
	"inch":        "inches",
	"wifi":        "wireless",
	"wi-fi":       "wireless",
	"bt":          "bluetooth",
	"blk":         "black",
	"wht":         "white",
	"slv":         "silver",
	"stnls":       "stainless",
	"w/":          "with",
	"pk":          "pack",
	"pcs":         "pieces",
	"oz":          "ounce",
	"lb":          "pound",
	"ed":          "edition",
	"ed.":         "edition",
	"vol":         "volume",
	"vol.":        "volume",
	"v.":          "version",
	"ver":         "version",
	"win":         "windows",
	"sw":          "software",
	"app":         "application",
	"upg":         "upgrade",
	"lic":         "license",

	// Music / movie abbreviations.
	"feat":     "featuring",
	"feat.":    "featuring",
	"ft":       "featuring",
	"ft.":      "featuring",
	"orig":     "original",
	"snd":      "sound",
	"sndtrk":   "soundtrack",
	"ost":      "original soundtrack",
	"dlx":      "deluxe",
	"rmx":      "remix",
	"rmstr":    "remaster",
	"remaster": "remastered",
	"lp":       "album",
	"ep":       "extended play",
	"dir":      "director",
	"dir.":     "director",
	"min":      "minutes",
	"hr":       "hour",

	// Beer / drink abbreviations.
	"ipa":  "india pale ale",
	"apa":  "american pale ale",
	"dipa": "double india pale ale",
	"abv":  "alcohol by volume",
	"co":   "company",
	"co.":  "company",
	"brw":  "brewing",
	"brwy": "brewery",
	"btl":  "bottle",

	// Generic.
	"&":     "and",
	"+":     "and",
	"inc":   "incorporated",
	"inc.":  "incorporated",
	"ltd":   "limited",
	"corp":  "corporation",
	"intl.": "international",
	"dept":  "department",
	"misc":  "miscellaneous",
	"asst":  "assorted",
}

// contrastSets are families of mutually exclusive variant descriptors. A
// semantically capable model knows that two products carrying *different*
// members of the same family ("deluxe" vs "premium" edition, "black" vs
// "silver") are different variants even when every other token matches —
// the knowledge that separates version/edition hard negatives on the
// software and electronics datasets.
var contrastSets = [][]string{
	{"standard", "professional", "deluxe", "premium", "home", "student", "enterprise", "ultimate", "basic", "plus"},
	{"black", "white", "silver", "gray", "blue", "red", "titanium"},
	{"win", "mac", "windows", "linux"},
	{"remastered", "explicit", "acoustic", "live"},
}

// contrastFam is one contrast family with its member tokens interned in
// the shared textsim ID space and its coverage draw precomputed.
type contrastFam struct {
	ids []uint32
	u   float64
}

var (
	contrastOnce sync.Once
	contrastFams []contrastFam
)

// contrastFamilies interns the contrast-set members once; profile-based
// membership checks are then binary searches over sorted token IDs.
func contrastFamilies() []contrastFam {
	contrastOnce.Do(func() {
		contrastFams = make([]contrastFam, len(contrastSets))
		for fi, family := range contrastSets {
			fam := contrastFam{
				ids: make([]uint32, len(family)),
				u:   knowsU(fmt.Sprintf("contrast:%d", fi)),
			}
			for mi, m := range family {
				fam.ids[mi] = textsim.Intern(m)
			}
			contrastFams[fi] = fam
		}
	})
	return contrastFams
}

// contrastConflictProfiles reports whether the two sides carry different
// members of a known contrast family, gated by semantic coverage: the
// model must know the family (one draw per family) to use it. Each side is
// the token profiles of its attribute values, and a family member is
// "present" when any value's token set contains it; the *last* present
// member of a family represents each side.
func contrastConflictProfiles(left, right []*textsim.Profile, coverage float64) bool {
	for _, fam := range contrastFamilies() {
		if fam.u >= coverage {
			continue // model does not know this family
		}
		inA, inB := -1, -1
		for mi, id := range fam.ids {
			for _, p := range left {
				if p.HasToken(id) {
					inA = mi
					break
				}
			}
			for _, p := range right {
				if p.HasToken(id) {
					inB = mi
					break
				}
			}
		}
		if inA >= 0 && inB >= 0 && inA != inB {
			return true
		}
	}
	return false
}

// knows reports whether a model with semantic coverage c knows a given
// knowledge entry. The decision is a deterministic hash of the entry alone
// (not the model), so capability strictly adds knowledge: a model with
// higher coverage knows a superset of what a weaker model knows, matching
// the monotone capability ladder of real model families.
func knows(entry string, coverage float64) bool {
	return knowsU(entry) < coverage
}

// knowsU returns the deterministic uniform draw in [0, 1) behind knows,
// for the entry given as the concatenation of parts: FNV-1a over the
// parts in order equals FNV-1a over their concatenation, so a caller
// drawing for "norm:"+tok passes the two parts and builds no string.
// Callers that gate the same entry repeatedly (identifier attention,
// contrast families) precompute it once and compare against coverage per
// call.
func knowsU(parts ...string) float64 {
	z := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for _, s := range parts {
		for i := 0; i < len(s); i++ {
			z ^= uint64(s[i])
			z *= 1099511628211 // FNV-1a 64-bit prime
		}
	}
	// FNV-1a mixes trailing-byte differences poorly into the high bits;
	// run the sum through a SplitMix64 finaliser so that similar entries
	// ("p13715" vs "p13716") decorrelate before the uniform mapping.
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// normalizeToken applies the knowledge base to a single token given the
// model's semantic coverage, returning the canonical form if known.
func normalizeToken(tok string, coverage float64) string {
	if canon, ok := knowledgeBase[tok]; ok && knows(tok, coverage) {
		return canon
	}
	return tok
}

// normalizeText lower-cases, tokenises and canonicalises text with the
// model's coverage, returning the normalised token list. A normalised
// field is additionally split on internal punctuation ("(213) 555-0123"
// and "213-555-0123" normalise to the same digit groups), which is how a
// capable reader reconciles formatting differences. Normalisation strength
// scales how much surface cleanup happens at all: a model with low
// Normalization keeps raw punctuation-laden fields (simulated by keeping a
// deterministic fraction of fields unnormalised), so they cannot match
// their clean twins.
func normalizeText(text string, caps Capabilities) []string {
	toks, _ := normalizeFields(text, caps)
	return toks
}

// normalizeFields is normalizeText that also returns the last field of
// text when the model kept it raw, and "" when it normalised it or the
// field holds only punctuation. normalizeText is field-local, so the
// normalised form of values joined by ", " is the values' normalised
// forms in order, except that the last field of a value followed by the
// separator carries its comma: kept raw, it reads rawLast+",".
func normalizeFields(text string, caps Capabilities) (out []string, rawLast string) {
	lower := strings.ToLower(text)
	n := 0
	for f, i := nextField(lower, 0); f != ""; f, i = nextField(lower, i) {
		n++
	}
	out = make([]string, 0, n)
	for f, i := nextField(lower, 0); f != ""; f, i = nextField(lower, i) {
		rawLast = ""
		tok := normCut.trim(f)
		if tok == "" {
			continue
		}
		if knowsU("norm:", tok) >= caps.Normalization {
			// Model fails to normalise this token: keep the raw field,
			// punctuation and all, so it won't match its clean twin.
			out = append(out, f)
			rawLast = f
			continue
		}
		// Abbreviation lookup happens on the whole trimmed field (the
		// knowledge base keys include dotted forms like "st."), then the
		// canonical form is split into alphanumeric subtokens — including
		// at digit/letter boundaries ("256gb" → "256", "gb") — and each
		// subtoken gets a second knowledge pass ("gb" → "gigabyte").
		runs := len(out)
		out = appendAlnumRuns(out, normalizeToken(tok, caps.Semantics))
		for k := runs; k < len(out); k++ {
			out[k] = normalizeToken(out[k], caps.Semantics)
		}
	}
	return out, rawLast
}

// splitAlnum splits a token into homogeneous runs of lowercase ASCII
// letters or digits, dropping everything else. Pure-punctuation tokens
// yield nothing.
func splitAlnum(tok string) []string { return appendAlnumRuns(nil, tok) }

// appendAlnumRuns appends the runs splitAlnum returns to dst. The runs
// are substrings of tok: every byte of a multi-byte rune is >= 0x80, so
// it ends a run exactly as the rune does.
func appendAlnumRuns(dst []string, tok string) []string {
	start, curDigit := -1, false
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		isDigit := '0' <= c && c <= '9'
		if !isDigit && !('a' <= c && c <= 'z') {
			if start >= 0 {
				dst = append(dst, tok[start:i])
				start = -1
			}
			continue
		}
		if start >= 0 && isDigit != curDigit {
			dst = append(dst, tok[start:i])
			start = -1
		}
		if start < 0 {
			start = i
		}
		curDigit = isDigit
	}
	if start >= 0 {
		dst = append(dst, tok[start:])
	}
	return dst
}

// cutset is an ASCII strings.Trim cutset, built once: strings.Trim builds
// its byte set from the cutset string on every call.
type cutset [256]bool

func newCutset(chars string) *cutset {
	var c cutset
	for i := 0; i < len(chars); i++ {
		c[chars[i]] = true
	}
	return &c
}

// trim is strings.Trim(s, chars) for the chars c was built from.
func (c *cutset) trim(s string) string {
	i, j := 0, len(s)
	for i < j && c[s[i]] {
		i++
	}
	for j > i && c[s[j-1]] {
		j--
	}
	return s[i:j]
}

var (
	// normCut is normalizeText's field cutset.
	normCut = newCutset(".,;:!?\"'()[]")
	// versionCut is versionToken's field cutset, and the ASCII part of
	// trimIdent's.
	versionCut = newCutset(",;:!?\"'()[]$")
)

// trimIdent is strings.Trim(s, ",;:!?\"'()[]$€£"): a leading or trailing
// "€" or "£" is stripped where strings.Trim would decode that rune.
func trimIdent(s string) string {
	for {
		if s != "" && versionCut[s[0]] {
			s = s[1:]
		} else if strings.HasPrefix(s, "€") {
			s = s[len("€"):]
		} else if strings.HasPrefix(s, "£") {
			s = s[len("£"):]
		} else {
			break
		}
	}
	for {
		if s != "" && versionCut[s[len(s)-1]] {
			s = s[:len(s)-1]
		} else if strings.HasSuffix(s, "€") {
			s = s[:len(s)-len("€")]
		} else if strings.HasSuffix(s, "£") {
			s = s[:len(s)-len("£")]
		} else {
			break
		}
	}
	return s
}
