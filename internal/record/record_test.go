package record

import (
	"strings"
	"testing"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Name: "TEST", FullName: "Test", Domain: "testing",
		Schema: Schema{
			Names: []string{"name", "price"},
			Types: []AttrType{AttrText, AttrNumeric},
		},
		Pairs: []LabeledPair{
			{Pair: Pair{Left: Record{ID: "l1", Values: []string{"a", "1"}}, Right: Record{ID: "r1", Values: []string{"a", "1"}}}, Match: true},
			{Pair: Pair{Left: Record{ID: "l2", Values: []string{"b", "2"}}, Right: Record{ID: "r2", Values: []string{"c", "3"}}}, Match: false},
			{Pair: Pair{Left: Record{ID: "l3", Values: []string{"d", "4"}}, Right: Record{ID: "r3", Values: []string{"e", "5"}}}, Match: false},
		},
	}
}

func TestRecordClone(t *testing.T) {
	r := Record{ID: "x", Values: []string{"a", "b"}}
	c := r.Clone()
	c.Values[0] = "mutated"
	if r.Values[0] != "a" {
		t.Fatal("Clone shares backing array")
	}
}

func TestSchemaNumAttrs(t *testing.T) {
	s := Schema{Names: []string{"a", "b", "c"}}
	if s.NumAttrs() != 3 {
		t.Fatalf("NumAttrs = %d", s.NumAttrs())
	}
}

func TestAttrTypeString(t *testing.T) {
	if AttrText.String() != "text" || AttrShort.String() != "short" || AttrNumeric.String() != "numeric" {
		t.Fatal("AttrType names wrong")
	}
	if !strings.Contains(AttrType(99).String(), "99") {
		t.Fatal("unknown AttrType should include value")
	}
}

func TestLabeledPairLabel(t *testing.T) {
	if (LabeledPair{Match: true}).Label() != 1 || (LabeledPair{Match: false}).Label() != 0 {
		t.Fatal("Label encoding wrong")
	}
}

func TestDatasetCounts(t *testing.T) {
	d := sampleDataset()
	if d.Positives() != 1 || len(d.Pairs)-d.Positives() != 2 {
		t.Fatalf("counts: %d pos, %d neg", d.Positives(), len(d.Pairs)-d.Positives())
	}
}

func TestSerializeRecordDefault(t *testing.T) {
	r := Record{Values: []string{"sony camera", "black", "$99"}}
	got := SerializeRecord(r, SerializeOptions{})
	if got != "sony camera, black, $99" {
		t.Fatalf("SerializeRecord = %q", got)
	}
}

func TestSerializeRecordColumnOrder(t *testing.T) {
	r := Record{Values: []string{"a", "b", "c"}}
	got := SerializeRecord(r, SerializeOptions{ColumnOrder: []int{2, 0, 1}})
	if got != "c, a, b" {
		t.Fatalf("shuffled serialization = %q", got)
	}
	// Out-of-range indices are skipped, not panicking.
	got = SerializeRecord(r, SerializeOptions{ColumnOrder: []int{0, 5, 1}})
	if got != "a, b" {
		t.Fatalf("out-of-range order = %q", got)
	}
}

func TestSerializeRecordCustomSeparator(t *testing.T) {
	r := Record{Values: []string{"a", "b"}}
	if got := SerializeRecord(r, SerializeOptions{Separator: " | "}); got != "a | b" {
		t.Fatalf("custom separator = %q", got)
	}
}
