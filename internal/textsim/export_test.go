package textsim

// CheckRatcliff bridges checkRatcliff, and the dense-table reference
// behind it, to the external textsim_test package, which can import the
// dataset generator without an import cycle.
var CheckRatcliff = checkRatcliff

// TrigramsRunes returns the rune-path trigram set of an already-lowercased
// string as its grams in order: the reference the byte kernel and lazily
// built profile gram sets are held to.
func TrigramsRunes(lower string) []string {
	return gramsOf(trigramSetRunes(lower))
}

// IsASCII reports whether s takes the byte trigram kernel.
var IsASCII = isASCII

// GramSetsBuilt returns how many profile trigram sets the process has
// built so far.
func GramSetsBuilt() int64 { return gramSetsBuilt.Load() }

func gramsOf(g *Trigrams) []string {
	grams := make([]string, g.len())
	for i := range grams {
		grams[i] = g.gram(i)
	}
	return grams
}

// ProfileTrigrams returns p's trigram set, building it on first use.
func ProfileTrigrams(p *Profile) *Trigrams { return p.gramSet() }

// GramsOf returns a trigram set's grams in order.
func GramsOf(g *Trigrams) []string { return gramsOf(g) }

// IDFTableMax bridges idfTableMax.
const IDFTableMax = idfTableMax
