package datasets

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/record"
	"repro/internal/stats"
)

// Table 1 of the paper, encoded as generator specs. Corruption profiles,
// hard-negative ratios and related-negative sharing implement each
// dataset's difficulty character; see the package comment and DESIGN.md
// for the calibration rationale.

func specABT() *spec {
	return &spec{
		name: "ABT", fullName: "Abt-Buy", domain: "web product",
		schema: record.Schema{
			Names: []string{"name", "description", "price"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrNumeric},
		},
		pos: 1028, neg: 8547,
		cleanProfile: CorruptionProfile{Abbreviate: 0.15, Typo: 0.02, DropToken: 0.05, AddNoise: 0.30, NoiseTokens: 4, CaseFlip: 0.06, NumberFormat: 0.3, MissingValue: 0.03},
		dirtyProfile: CorruptionProfile{Abbreviate: 0.55, Typo: 0.04, DropToken: 0.16, AddNoise: 0.70, NoiseTokens: 7, Reorder: 0.15, CaseFlip: 0.14, NumberFormat: 0.6, MissingValue: 0.25, Truncate: 0.14},
		hardNegRatio: 0.50,
		gen: func(rng *stats.RNG, serial int) entity {
			brand := pick(rng, productBrands)
			title := strings.Join([]string{brand, pick(rng, productAdjectives), pick(rng, productTypes), modelNumber(rng, serial)}, " ")
			return entity{title, descriptionFor(title, rng, 9), price(rng, 15, 900)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			// Same brand and type, different model: swap the identifier.
			toks := strings.Fields(m[0])
			toks[len(toks)-1] = modelNumber(rng, serial+499)
			m[0] = strings.Join(toks, " ")
			m[1] = descriptionFor(m[0], rng, 9)
			m[2] = price(rng, 15, 900)
			return m
		},
		// The two shops write independent marketing copy about the same
		// product: the right view regenerates the description from the
		// title. This is what defeats whole-record similarity on Abt-Buy.
		rightStyle: func(vals entity, rng *stats.RNG) {
			vals[1] = descriptionFor(vals[0], rng, 9)
		},
	}
}

func specWDC() *spec {
	return &spec{
		name: "WDC", fullName: "Web Data Commons", domain: "web product",
		schema: record.Schema{
			Names: []string{"title", "description", "price"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrNumeric},
		},
		pos: 2250, neg: 7992,
		// WDC is scraped from thousands of webshops: very noisy on both
		// sides, heavy marketing filler and truncation.
		cleanProfile: CorruptionProfile{Abbreviate: 0.35, Typo: 0.04, DropToken: 0.10, AddNoise: 0.45, NoiseTokens: 5, Reorder: 0.16, CaseFlip: 0.14, NumberFormat: 0.4, MissingValue: 0.08},
		dirtyProfile: CorruptionProfile{Abbreviate: 0.60, Typo: 0.06, DropToken: 0.16, AddNoise: 0.70, NoiseTokens: 7, Reorder: 0.22, CaseFlip: 0.18, NumberFormat: 0.5, MissingValue: 0.20, Truncate: 0.14},
		hardNegRatio: 0.55,
		gen: func(rng *stats.RNG, serial int) entity {
			brand := pick(rng, productBrands)
			title := strings.Join([]string{brand, pick(rng, productTypes), pick(rng, productAdjectives), modelNumber(rng, serial), pick(rng, productColors)}, " ")
			return entity{title, descriptionFor(title, rng, 11), price(rng, 5, 600)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			toks := strings.Fields(m[0])
			toks[3] = modelNumber(rng, serial+811) // different model
			if rng.Bool(0.5) {
				toks[4] = pick(rng, productColors) // different variant colour
			}
			m[0] = strings.Join(toks, " ")
			m[1] = descriptionFor(m[0], rng, 11)
			return m
		},
		rightStyle: func(vals entity, rng *stats.RNG) {
			vals[1] = descriptionFor(vals[0], rng, 11)
		},
	}
}

func specDBAC() *spec {
	return &spec{
		name: "DBAC", fullName: "DBLP-ACM", domain: "citation",
		schema: record.Schema{
			Names: []string{"title", "authors", "venue", "year"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrShort, record.AttrNumeric},
		},
		pos: 2220, neg: 10143,
		// Both DBLP and ACM are curated: clean structured data, author
		// formatting is the main divergence.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.05, Typo: 0.01, DropToken: 0.02},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.30, Typo: 0.03, DropToken: 0.08, CaseFlip: 0.05, MissingValue: 0.05},
		hardNegRatio:    0.20,
		relatedNegRatio: 0.60,
		sharedOnRelated: []int{2, 3}, // venue, year
		gen: func(rng *stats.RNG, serial int) entity {
			title := titleWords(rng, 5+rng.Intn(4)) + " p" + strconv.Itoa(serial)
			return entity{title, authorList(rng, 2+rng.Intn(3)), pick(rng, venues), year(rng, 1995, 2005)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			// Same venue and overlapping topic words, different paper.
			m[0] = titleWords(rng, 5+rng.Intn(4)) + " p" + strconv.Itoa(serial) + "x"
			m[1] = authorList(rng, 2+rng.Intn(3))
			return m
		},
		rightStyle: func(vals entity, rng *stats.RNG) {
			vals[1] = initialsStyle(vals[1])
		},
	}
}

func specDBGO() *spec {
	return &spec{
		name: "DBGO", fullName: "DBLP-Google", domain: "citation",
		schema: record.Schema{
			Names: []string{"title", "authors", "venue", "year"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrShort, record.AttrNumeric},
		},
		pos: 5347, neg: 23360,
		// Google Scholar records are scraped: truncated author lists,
		// missing venues and years, abbreviation soup.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.08, Typo: 0.02, DropToken: 0.04},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.55, Typo: 0.12, DropToken: 0.32, CaseFlip: 0.12, MissingValue: 0.32, Truncate: 0.22},
		hardNegRatio:    0.35,
		relatedNegRatio: 0.55,
		sharedOnRelated: []int{1, 2, 3}, // authors, venue, year — same research group
		gen: func(rng *stats.RNG, serial int) entity {
			title := titleWords(rng, 5+rng.Intn(5)) + " p" + strconv.Itoa(serial)
			return entity{title, authorList(rng, 1+rng.Intn(4)), pick(rng, venues), year(rng, 1992, 2008)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			switch rng.Intn(3) {
			case 0:
				// Follow-up paper by the same authors: overlapping topic
				// words, different paper, different venue and year.
				m[0] = titleWords(rng, 5+rng.Intn(5)) + " extended p" + strconv.Itoa(serial) + "x"
				m[2] = pick(rng, venues)
				m[3] = year(rng, 1992, 2008)
			case 1:
				m[0] = titleWords(rng, 5+rng.Intn(5)) + " p" + strconv.Itoa(serial) + "x"
			default:
				m[1] = authorList(rng, 1+rng.Intn(4))
				m[0] = titleWords(rng, 5+rng.Intn(5)) + " p" + strconv.Itoa(serial) + "x"
			}
			return m
		},
		rightStyle: func(vals entity, rng *stats.RNG) {
			if rng.Bool(0.6) {
				vals[1] = initialsStyle(vals[1])
			}
		},
	}
}

func specFOZA() *spec {
	return &spec{
		name: "FOZA", fullName: "Fodors-Zagats", domain: "restaurant",
		schema: record.Schema{
			Names: []string{"name", "addr", "city", "phone", "type", "class"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrShort, record.AttrShort, record.AttrShort, record.AttrShort},
		},
		pos: 110, neg: 836,
		// The classic benchmark: well-structured listings whose surface
		// diverges heavily (abbreviations, phone punctuation) while the
		// underlying structure stays clean — easy for structured matchers,
		// hostile to naive string similarity.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.15, CaseFlip: 0.03},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.60, Typo: 0.05, DropToken: 0.10, CaseFlip: 0.07, MissingValue: 0.04},
		hardNegRatio:    0.18,
		relatedNegRatio: 0.70,
		sharedOnRelated: []int{2, 4, 5}, // city, type, class
		gen: func(rng *stats.RNG, serial int) entity {
			name := pick(rng, restaurantNames1) + " " + pick(rng, restaurantNames2)
			addr := streetAddress(rng)
			return entity{name, addr, pick(rng, cities), phoneNumber(rng, serial), pick(rng, cuisines), "$" + strings.Repeat("$", rng.Intn(3))}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			// A different branch: same name, different address and phone.
			m[1] = streetAddress(rng)
			m[3] = phoneNumber(rng, serial+613)
			if rng.Bool(0.5) {
				m[2] = pick(rng, cities)
			}
			return m
		},
		rightStyle: func(vals entity, rng *stats.RNG) {
			vals[3] = rewritePhone(vals[3])
		},
	}
}

func specZOYE() *spec {
	return &spec{
		name: "ZOYE", fullName: "Zomato-Yelp", domain: "restaurant",
		schema: record.Schema{
			Names: []string{"name", "addr", "city", "phone", "type", "rating", "zip"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrShort, record.AttrShort, record.AttrShort, record.AttrNumeric, record.AttrNumeric},
		},
		pos: 90, neg: 354,
		cleanProfile:    CorruptionProfile{Abbreviate: 0.10, CaseFlip: 0.02},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.50, Typo: 0.05, DropToken: 0.09, CaseFlip: 0.06, NumberFormat: 0.3, MissingValue: 0.05},
		hardNegRatio:    0.22,
		relatedNegRatio: 0.65,
		sharedOnRelated: []int{2, 4}, // city, type
		gen: func(rng *stats.RNG, serial int) entity {
			name := pick(rng, restaurantNames1) + " " + pick(rng, restaurantNames2)
			addr := streetAddress(rng)
			rating := strconv.FormatFloat(2.5+rng.Float64()*2.5, 'f', 1, 64)
			zip := strconv.Itoa(10000 + rng.Intn(89999))
			return entity{name, addr, pick(rng, cities), phoneNumber(rng, serial), pick(rng, cuisines), rating, zip}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			m[1] = streetAddress(rng)
			m[3] = phoneNumber(rng, serial+409)
			m[6] = strconv.Itoa(10000 + rng.Intn(89999))
			return m
		},
		rightStyle: func(vals entity, rng *stats.RNG) {
			vals[3] = rewritePhone(vals[3])
		},
	}
}

func specAMGO() *spec {
	return &spec{
		name: "AMGO", fullName: "Amazon-Google", domain: "software",
		schema: record.Schema{
			Names: []string{"title", "manufacturer", "price"},
			Types: []record.AttrType{record.AttrText, record.AttrShort, record.AttrNumeric},
		},
		pos: 1167, neg: 10293,
		// The hardest benchmark: software titles where version and edition
		// are the only discriminators, manufacturer frequently missing on
		// the Google side, prices diverge.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.18, Typo: 0.02, DropToken: 0.08, NumberFormat: 0.3},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.55, Typo: 0.05, DropToken: 0.20, AddNoise: 0.40, NoiseTokens: 3, Reorder: 0.15, CaseFlip: 0.10, NumberFormat: 0.6, MissingValue: 0.30, Truncate: 0.12},
		hardNegRatio:    0.55,
		relatedNegRatio: 0.30,
		sharedOnRelated: []int{1}, // manufacturer
		gen: func(rng *stats.RNG, serial int) entity {
			vendor := pick(rng, softwareVendors)
			title := vendor + " " + pick(rng, softwareProducts) + " " + pick(rng, softwareEditions) + " " +
				strconv.Itoa(1+serial%9) + "." + strconv.Itoa(rng.Intn(10)) + " " + pick(rng, []string{"win", "mac", "windows", ""})
			return entity{strings.TrimSpace(title), vendor, price(rng, 20, 700)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			toks := strings.Fields(m[0])
			// Same vendor, different product in the lineup: bump the
			// version, swap the edition, or switch the product word —
			// the mix of hard negatives real software catalogues produce.
			roll := rng.Float64()
			for i, t := range toks {
				if strings.Contains(t, ".") && isNumericValue(t) {
					toks[i] = strconv.Itoa(1+(serial+3)%9) + "." + strconv.Itoa(rng.Intn(10))
					break
				}
			}
			if roll < 0.35 {
				for i, t := range toks {
					if contains(softwareProducts, t) {
						toks[i] = pick(rng, softwareProducts)
						break
					}
				}
			} else if roll < 0.65 {
				for i, t := range toks {
					if contains(softwareEditions, t) {
						toks[i] = pick(rng, softwareEditions)
						break
					}
				}
			}
			m[0] = strings.Join(toks, " ")
			m[2] = price(rng, 20, 700)
			return m
		},
	}
}

func specBEER() *spec {
	return &spec{
		name: "BEER", fullName: "Beer", domain: "drink",
		schema: record.Schema{
			Names: []string{"name", "factory", "style", "abv"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrShort, record.AttrNumeric},
		},
		pos: 68, neg: 382,
		cleanProfile:    CorruptionProfile{Abbreviate: 0.15, Typo: 0.03},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.50, Typo: 0.08, DropToken: 0.18, CaseFlip: 0.07, MissingValue: 0.15, NumberFormat: 0.4},
		hardNegRatio:    0.45,
		relatedNegRatio: 0.40,
		sharedOnRelated: []int{1, 2}, // brewery, style
		gen: func(rng *stats.RNG, serial int) entity {
			name := pick(rng, beerAdjectives) + " " + pick(rng, beerNouns) + " " + pick(rng, beerStyles)
			abv := strconv.FormatFloat(4+rng.Float64()*8, 'f', 1, 64) + "%"
			return entity{name, pick(rng, breweryNames), pick(rng, beerStyles), abv}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			// Same brewery, adjacent beer in the lineup: lineups reuse
			// naming themes, so the sibling usually shares a name word.
			words := strings.Fields(m[0])
			if len(words) >= 2 && rng.Bool(0.45) {
				words[1] = pick(rng, beerNouns)
				if rng.Bool(0.5) {
					words[0] = pick(rng, beerAdjectives)
				}
				m[0] = strings.Join(words, " ")
			} else {
				m[0] = pick(rng, beerAdjectives) + " " + pick(rng, beerNouns) + " " + pick(rng, beerStyles)
				m[2] = pick(rng, beerStyles)
			}
			m[3] = strconv.FormatFloat(4+rng.Float64()*8, 'f', 1, 64) + "%"
			return m
		},
	}
}

func specITAM() *spec {
	return &spec{
		name: "ITAM", fullName: "iTunes-Amazon", domain: "music",
		schema: record.Schema{
			Names: []string{"song", "artist", "album", "genre", "price", "copyright", "time", "released"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrText, record.AttrShort, record.AttrNumeric, record.AttrText, record.AttrNumeric, record.AttrNumeric},
		},
		pos: 132, neg: 407,
		// Eight attributes dilute the discriminative signal (song title)
		// for matchers that weight every field; hard negatives are other
		// tracks of the same album.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.15, Typo: 0.04, NumberFormat: 0.3, MissingValue: 0.05},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.50, Typo: 0.08, DropToken: 0.15, AddNoise: 0.22, NoiseTokens: 3, CaseFlip: 0.08, NumberFormat: 0.6, MissingValue: 0.28},
		hardNegRatio:    0.62,
		relatedNegRatio: 0.30,
		sharedOnRelated: []int{1, 3}, // artist, genre
		gen: func(rng *stats.RNG, serial int) entity {
			song := pick(rng, musicAdjectives) + " " + pick(rng, musicNouns)
			artist := pick(rng, artistNames)
			album := pick(rng, musicAdjectives) + " " + pick(rng, musicNouns)
			dur := trackDuration(rng)
			copyrightLine := strconv.Itoa(1990+rng.Intn(30)) + " " + pick(rng, lastNames) + " records"
			return entity{song, artist, album, pick(rng, musicGenres), price(rng, 0.69, 1.29), copyrightLine, dur, year(rng, 1990, 2020)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			// Another track on the same album: the song title changes but —
			// album tracks being thematically named — usually shares a word
			// with the original, which is what makes iTunes-Amazon hard
			// negatives nearly indistinguishable for whole-record
			// similarity.
			words := strings.Fields(m[0])
			if rng.Bool(0.5) && len(words) == 2 {
				m[0] = words[0] + " " + pick(rng, musicNouns)
			} else if len(words) == 2 {
				m[0] = pick(rng, musicAdjectives) + " " + words[1]
			} else {
				m[0] = pick(rng, musicAdjectives) + " " + pick(rng, musicNouns)
			}
			m[6] = trackDuration(rng)
			return m
		},
		// iTunes lists durations as m:ss, Amazon as total seconds; iTunes
		// also decorates song and album titles with release-variant
		// suffixes the Amazon listing omits, which drags matching pairs'
		// similarity down into the hard-negative range — the effect behind
		// ZeroER's published collapse on this dataset.
		rightStyle: func(vals entity, rng *stats.RNG) {
			var mins, secs int
			if _, err := fmt.Sscanf(vals[6], "%d:%d", &mins, &secs); err == nil {
				vals[6] = strconv.Itoa(mins*60 + secs)
			}
			suffixes := []string{"(album version)", "(remastered)", "(deluxe version)", "(explicit)", "(single edit)"}
			if rng.Bool(0.35) {
				vals[0] = vals[0] + " " + pick(rng, suffixes)
			}
			if rng.Bool(0.4) {
				vals[2] = vals[2] + " (deluxe edition)"
			}
		},
	}
}

func specROIM() *spec {
	return &spec{
		name: "ROIM", fullName: "RottenTomato-IMDB", domain: "movie",
		schema: record.Schema{
			Names: []string{"title", "director", "year", "genre", "duration"},
			Types: []record.AttrType{record.AttrText, record.AttrText, record.AttrNumeric, record.AttrShort, record.AttrNumeric},
		},
		pos: 190, neg: 410,
		cleanProfile:    CorruptionProfile{Abbreviate: 0.06, Typo: 0.02},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.32, Typo: 0.05, DropToken: 0.10, CaseFlip: 0.05, NumberFormat: 0.3, MissingValue: 0.12},
		hardNegRatio:    0.25,
		relatedNegRatio: 0.50,
		sharedOnRelated: []int{3}, // genre
		gen: func(rng *stats.RNG, serial int) entity {
			title := "the " + pick(rng, movieAdjectives) + " " + pick(rng, movieNouns)
			dur := strconv.Itoa(80+rng.Intn(80)) + " min"
			return entity{title, personName(rng), year(rng, 1970, 2020), pick(rng, movieGenresList), dur}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			if rng.Bool(0.4) {
				// Remake: same title, different director and year.
				m[1] = personName(rng)
				m[2] = year(rng, 1970, 2020)
			} else {
				m[0] = "the " + pick(rng, movieAdjectives) + " " + pick(rng, movieNouns)
				m[4] = strconv.Itoa(80+rng.Intn(80)) + " min"
			}
			return m
		},
	}
}

func specWAAM() *spec {
	return &spec{
		name: "WAAM", fullName: "Walmart-Amazon", domain: "electronics",
		schema: record.Schema{
			Names: []string{"title", "category", "brand", "modelno", "price"},
			Types: []record.AttrType{record.AttrText, record.AttrShort, record.AttrShort, record.AttrShort, record.AttrNumeric},
		},
		pos: 962, neg: 9280,
		// Electronics with domain-specific ungrammatical titles; the model
		// number is the key discriminator and often missing on one side.
		cleanProfile:    CorruptionProfile{Abbreviate: 0.22, Typo: 0.02, DropToken: 0.07, AddNoise: 0.25, NoiseTokens: 3, CaseFlip: 0.06, NumberFormat: 0.3},
		dirtyProfile:    CorruptionProfile{Abbreviate: 0.55, Typo: 0.04, DropToken: 0.15, AddNoise: 0.55, NoiseTokens: 6, Reorder: 0.15, CaseFlip: 0.12, NumberFormat: 0.5, MissingValue: 0.30, Truncate: 0.12},
		hardNegRatio:    0.50,
		relatedNegRatio: 0.35,
		sharedOnRelated: []int{1, 2}, // category, brand
		gen: func(rng *stats.RNG, serial int) entity {
			brand := pick(rng, productBrands)
			model := modelNumber(rng, serial)
			parts := []string{brand, pick(rng, productAdjectives), pick(rng, productTypes), model}
			// A third of electronics carry a generation/version marker, the
			// source of version-style hard negatives outside AMGO.
			if rng.Bool(0.33) {
				parts = append(parts, versionMarker(rng))
			}
			parts = append(parts, pick(rng, productColors))
			title := strings.Join(parts, " ")
			return entity{title, pick(rng, webProductCategories), brand, model, price(rng, 10, 800)}
		},
		mutate: func(e entity, rng *stats.RNG, serial int) entity {
			m := clone(e)
			toks := strings.Fields(m[0])
			if len(toks) == 6 && rng.Bool(0.5) {
				// Versioned product: the successor generation — same model
				// line, bumped version marker.
				toks[4] = versionMarker(rng)
			} else {
				// Same brand and category, adjacent model in the lineup.
				model := modelNumber(rng, serial+257)
				toks[3] = model
				m[3] = model
			}
			m[0] = strings.Join(toks, " ")
			m[4] = price(rng, 10, 800)
			return m
		},
	}
}

// trackDuration draws an m:ss track length.
func trackDuration(rng *stats.RNG) string {
	m := strconv.Itoa(2 + rng.Intn(4))
	var buf [8]byte
	return m + ":" + string(appendPadded(buf[:0], rng.Intn(60), 2))
}

// versionMarker draws an electronics generation marker such as "v2.3".
func versionMarker(rng *stats.RNG) string {
	return "v" + strconv.Itoa(1+rng.Intn(4)) + "." + strconv.Itoa(rng.Intn(5))
}

func contains(pool []string, s string) bool {
	for _, p := range pool {
		if p == s {
			return true
		}
	}
	return false
}

// allSpecs returns the 11 dataset specs in the paper's table order.
func allSpecs() []*spec {
	return []*spec{
		specABT(), specWDC(), specDBAC(), specDBGO(), specFOZA(), specZOYE(),
		specAMGO(), specBEER(), specITAM(), specROIM(), specWAAM(),
	}
}
