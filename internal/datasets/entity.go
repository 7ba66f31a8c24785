package datasets

import (
	"strconv"
	"strings"

	"repro/internal/record"
	"repro/internal/stats"
)

// entity holds the canonical attribute values of one real-world entity,
// before source-specific formatting and corruption produce the two record
// views.
type entity []string

// spec defines one benchmark dataset: its published statistics, its entity
// factory, its hard-negative mutator, and its difficulty profile.
type spec struct {
	name     string
	fullName string
	domain   string
	schema   record.Schema
	pos      int
	neg      int

	// cleanProfile corrupts the left view (the cleaner source), dirtyProfile
	// the right view (the messier source).
	cleanProfile CorruptionProfile
	dirtyProfile CorruptionProfile

	// hardNegRatio is the fraction of negatives built by mutating an entity
	// into a confusable sibling instead of pairing independent entities.
	hardNegRatio float64

	// relatedNegRatio is the fraction of negatives built from independent
	// entities that share categorical context (same venue, city, brand...),
	// simulating the blocking step that produced the candidate set: blocked
	// negatives always share surface tokens with their counterpart.
	relatedNegRatio float64

	// sharedOnRelated lists the attribute indices copied from the left
	// entity when building a related negative. Only categorical,
	// non-identifying attributes belong here.
	sharedOnRelated []int

	// gen draws a fresh canonical entity. The serial parameter is unique
	// per entity and must be woven into at least one discriminative value
	// so that entities are never accidental duplicates.
	gen func(rng *stats.RNG, serial int) entity

	// mutate turns an entity into a hard negative sibling: most values
	// stay, a discriminative one changes.
	mutate func(e entity, rng *stats.RNG, serial int) entity

	// rightStyle optionally reformats canonical values for the right
	// source (author initials, phone punctuation, ...) before corruption.
	// vals is the view's own copy, so it is rewritten in place.
	rightStyle func(vals entity, rng *stats.RNG)
}

func pick(rng *stats.RNG, pool []string) string {
	return pool[rng.Intn(len(pool))]
}

// pickN draws n distinct entries from pool: the entries that
// rng.Sample(len(pool), n) would index, with the same draws. The
// permutation is built in a stack scratch slice instead of a fresh one
// per pick.
func pickN(rng *stats.RNG, pool []string, n int) []string {
	var scratch [128]int
	var perm []int
	if len(pool) <= len(scratch) {
		perm = scratch[:len(pool)]
	} else {
		perm = make([]int, len(pool))
	}
	rng.PermInto(perm)
	out := make([]string, min(n, len(pool)))
	for i := range out {
		out[i] = pool[perm[i]]
	}
	return out
}

func clone(e entity) entity {
	return append(entity(nil), e...)
}

// appendPadded appends the non-negative n in decimal, zero-padded to
// width digits (fmt's %0*d).
func appendPadded(b []byte, n, width int) []byte {
	for d := 1; width > 1; width-- {
		d *= 10
		if n < d {
			b = append(b, '0')
		}
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// modelNumber builds a discriminative alphanumeric identifier that encodes
// the entity serial, guaranteeing uniqueness.
func modelNumber(rng *stats.RNG, serial int) string {
	letters := "abcdefghjkmnpqrstuvwx"
	l1 := letters[rng.Intn(len(letters))]
	l2 := letters[rng.Intn(len(letters))]
	var buf [24]byte
	b := strconv.AppendInt(append(buf[:0], l1, l2, '-'), int64(serial%997), 10)
	return string(appendPadded(b, rng.Intn(100), 2))
}

func personName(rng *stats.RNG) string {
	return pick(rng, firstNames) + " " + pick(rng, lastNames)
}

// authorList renders n full author names joined with "and".
func authorList(rng *stats.RNG, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(pick(rng, firstNames))
		b.WriteByte(' ')
		b.WriteString(pick(rng, lastNames))
	}
	return b.String()
}

// initialsStyle rewrites "john smith and mei chen" as "j. smith, m. chen",
// the classic DBLP-vs-ACM author formatting difference.
func initialsStyle(authors string) string {
	var b strings.Builder
	for i, p := range strings.Split(authors, " and ") {
		if i > 0 {
			b.WriteString(", ")
		}
		words := strings.Fields(p)
		if len(words) < 2 {
			b.WriteString(p)
			continue
		}
		b.WriteRune(rune(words[0][0]))
		b.WriteString(". ")
		b.WriteString(words[len(words)-1])
	}
	return b.String()
}

func titleWords(rng *stats.RNG, n int) string {
	return strings.Join(pickN(rng, csTopics, n), " ")
}

func phoneNumber(rng *stats.RNG, serial int) string {
	var buf [24]byte
	b := append(appendPadded(buf[:0], 200+serial%700, 3), "-555-"...)
	return string(appendPadded(b, rng.Intn(10000), 4))
}

// rewritePhone renders a phone number in the alternative punctuation style.
func rewritePhone(p string) string {
	parts := strings.Split(p, "-")
	if len(parts) != 3 {
		return p
	}
	return "(" + parts[0] + ") " + parts[1] + "-" + parts[2]
}

func price(rng *stats.RNG, lo, hi float64) string {
	v := lo + rng.Float64()*(hi-lo)
	var buf [24]byte
	return string(strconv.AppendFloat(append(buf[:0], '$'), v, 'f', 2, 64))
}

func year(rng *stats.RNG, lo, hi int) string {
	return strconv.Itoa(lo + rng.Intn(hi-lo+1))
}

// streetAddress draws "<number> <street> <kind>", the restaurant address.
func streetAddress(rng *stats.RNG) string {
	return strconv.Itoa(100+rng.Intn(9900)) + " " + pick(rng, streetNames) + " " + pick(rng, streetKinds)
}

// descriptionFor builds a product description from the title plus category
// and filler text; length controls noise mass.
func descriptionFor(title string, rng *stats.RNG, filler int) string {
	var b strings.Builder
	b.Grow(len(title) + 12*(filler+1)) // room for the category and filler in the common case
	b.WriteString(title)
	b.WriteByte(' ')
	b.WriteString(pick(rng, webProductCategories))
	for i := 0; i < filler; i++ {
		b.WriteByte(' ')
		b.WriteString(marketingFiller[rng.Intn(len(marketingFiller))])
	}
	return b.String()
}
