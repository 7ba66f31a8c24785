// Package record defines the data model of the study: records, relations,
// labeled record pairs and benchmark datasets, together with the
// serialization logic that turns record pairs into the string inputs
// consumed by language-model matchers.
//
// The model follows the paper's formalisation (§2.1): two input relations
// R_left and R_right with k aligned attributes, and a matcher that decides
// whether a pair (r_l, r_r) refers to the same real-world entity. Under the
// cross-dataset restrictions, matchers may only see attribute *values* as
// strings — never column names or types — which is why serialization
// deliberately omits the schema.
package record

import (
	"fmt"
	"strings"
)

// Record is a single tuple: an ordered list of attribute values, already
// cast to strings. Position i corresponds to schema attribute i. Empty
// strings model missing values, which the benchmark datasets contain.
type Record struct {
	// ID identifies the record within its relation; it is never shown to a
	// matcher (cross-dataset restriction 2 forbids schema/identity hints).
	ID string
	// Values holds the attribute values in schema order.
	Values []string
}

// Clone returns a deep copy of the record.
func (r Record) Clone() Record {
	return Record{ID: r.ID, Values: append([]string(nil), r.Values...)}
}

// Schema describes the aligned attributes of a dataset's two relations.
// Matchers never see it (restriction 2); it exists for dataset generation,
// debugging, and for the one method in the study that partially violates
// the restriction (ZeroER needs column type information, as the paper
// notes).
type Schema struct {
	// Names holds human-readable attribute names, e.g. "title".
	Names []string
	// Types holds the logical type per attribute, used only by ZeroER's
	// similarity-function selection.
	Types []AttrType
}

// AttrType is the logical type of an attribute.
type AttrType int

// Attribute types understood by the similarity-function selector.
const (
	AttrText    AttrType = iota // free text: titles, descriptions
	AttrShort                   // short categorical strings: brand, genre
	AttrNumeric                 // numbers serialised as strings: price, year
)

// String returns a debug name for the attribute type.
func (t AttrType) String() string {
	switch t {
	case AttrText:
		return "text"
	case AttrShort:
		return "short"
	case AttrNumeric:
		return "numeric"
	default:
		return fmt.Sprintf("AttrType(%d)", int(t))
	}
}

// NumAttrs returns the number of attributes in the schema.
func (s Schema) NumAttrs() int { return len(s.Names) }

// Pair is a candidate record pair from R_left × R_right.
type Pair struct {
	Left  Record
	Right Record
}

// LabeledPair is a candidate pair with its ground-truth match label.
type LabeledPair struct {
	Pair
	// Match is true when the two records refer to the same entity.
	Match bool
}

// Label returns the label as 0/1, the encoding used by the classifiers.
func (p LabeledPair) Label() float64 {
	if p.Match {
		return 1
	}
	return 0
}

// Dataset is one benchmark dataset: a named collection of labeled pairs
// drawn from two relations with a shared schema.
type Dataset struct {
	// Name is the short dataset code used throughout the paper,
	// e.g. "ABT" or "DBGO".
	Name string
	// FullName is the descriptive dataset name, e.g. "Abt-Buy".
	FullName string
	// Domain is the paper's domain label, e.g. "web product".
	Domain string
	// Schema describes the aligned attributes (hidden from matchers).
	Schema Schema
	// Pairs holds all labeled candidate pairs.
	Pairs []LabeledPair
}

// Positives returns the number of matching pairs.
func (d *Dataset) Positives() int {
	n := 0
	for _, p := range d.Pairs {
		if p.Match {
			n++
		}
	}
	return n
}

// SerializeOptions controls how a record pair is rendered to a string.
type SerializeOptions struct {
	// ColumnOrder optionally permutes the attribute order before
	// serialization. The paper varies serialization across random seeds by
	// shuffling column order (§2.2 "Repetitions"); a nil order keeps the
	// schema order.
	ColumnOrder []int
	// Separator joins attribute values; the StringSim baseline uses ", ".
	Separator string
	// Cache, when non-nil, memoises serializations across runs. The
	// evaluation harness installs one shared cache so the matcher
	// configurations of a quality table stop re-serializing the same fixed
	// test sets from scratch; see SerializeCache.
	Cache *SerializeCache
}

// DefaultSeparator is the attribute separator used when none is given.
const DefaultSeparator = ", "

// Sep returns the separator SerializeRecord joins values with.
func (o SerializeOptions) Sep() string {
	if o.Separator == "" {
		return DefaultSeparator
	}
	return o.Separator
}

// AppendOrdered appends to dst the values of r in the order
// SerializeRecord joins them: r's values, or those ColumnOrder names
// that exist, in its order.
func AppendOrdered(dst []string, r Record, opts SerializeOptions) []string {
	if opts.ColumnOrder == nil {
		return append(dst, r.Values...)
	}
	for _, i := range opts.ColumnOrder {
		if i >= 0 && i < len(r.Values) {
			dst = append(dst, r.Values[i])
		}
	}
	return dst
}

// SerializeRecord renders a single record as a separator-joined value list.
// Per cross-dataset restriction 2, no attribute names are included.
func SerializeRecord(r Record, opts SerializeOptions) string {
	if opts.Cache != nil {
		return opts.Cache.record(r, opts)
	}
	if opts.ColumnOrder == nil {
		return strings.Join(r.Values, opts.Sep())
	}
	var stack [16]string
	return strings.Join(AppendOrdered(stack[:0], r, opts), opts.Sep())
}
