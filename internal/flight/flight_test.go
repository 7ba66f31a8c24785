package flight

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRecorderRoundTrip(t *testing.T) {
	r := New(64)
	want := Record{
		TimeUS: 123456, Key: 0xdeadbeefcafef00d, Code: CodeScored, Tier: 2,
		Pairs: 64, QueueUS: 150, BatchUS: 900, PredictUS: 4200, CostNano: 1812345678,
	}
	r.Log(want)
	recs := r.Snapshot(nil)
	if len(recs) != 1 {
		t.Fatalf("snapshot len = %d, want 1", len(recs))
	}
	got := recs[0]
	want.Seq = 0
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestRecorderNegativeTierAndAllCodes(t *testing.T) {
	r := New(16)
	for c := Code(0); c < numCodes; c++ {
		r.Log(Record{TimeUS: int64(c), Code: c, Tier: -1, Pairs: 1})
	}
	recs := r.Snapshot(nil)
	if len(recs) != int(numCodes) {
		t.Fatalf("got %d records, want %d", len(recs), numCodes)
	}
	for i, rec := range recs {
		if rec.Code != Code(i) || rec.Tier != -1 {
			t.Fatalf("record %d = %+v, want code %v tier -1", i, rec, Code(i))
		}
	}
}

func TestRecorderWrapKeepsNewest(t *testing.T) {
	r := New(16) // rounds to 16
	for i := 0; i < 100; i++ {
		r.Log(Record{TimeUS: int64(i), Pairs: uint16(i)})
	}
	recs := r.Snapshot(nil)
	if len(recs) != 16 {
		t.Fatalf("snapshot len = %d, want 16", len(recs))
	}
	for i, rec := range recs {
		wantSeq := int64(84 + i)
		if rec.Seq != wantSeq || rec.TimeUS != wantSeq {
			t.Fatalf("record %d = %+v, want seq/t_us %d", i, rec, wantSeq)
		}
	}
	if r.Len() != 16 || r.Size() != 16 {
		t.Fatalf("Len/Size = %d/%d, want 16/16", r.Len(), r.Size())
	}
}

func TestRecorderSizeRounding(t *testing.T) {
	if got := New(100).Size(); got != 128 {
		t.Fatalf("New(100).Size() = %d, want 128", got)
	}
	if got := New(0).Size(); got != 16 {
		t.Fatalf("New(0).Size() = %d, want 16", got)
	}
}

func TestNilRecorderDisabled(t *testing.T) {
	var r *Recorder
	r.Log(Record{Pairs: 1})
	if got := r.Snapshot(nil); len(got) != 0 {
		t.Fatalf("nil recorder snapshot = %v, want empty", got)
	}
	if r.Len() != 0 || r.Size() != 0 || r.IsStraggler(1<<40) {
		t.Fatal("nil recorder must read as disabled")
	}
	r.SetStragglerUS(5)
	var d *Dumper
	if p, err := d.Trigger("x"); p != "" || err != nil {
		t.Fatalf("nil dumper Trigger = %q, %v", p, err)
	}
	d.TriggerAsync("x")
}

func TestStragglerThreshold(t *testing.T) {
	r := New(16)
	if r.IsStraggler(1 << 40) {
		t.Fatal("unset threshold must never flag stragglers")
	}
	r.SetStragglerUS(1000)
	if !r.IsStraggler(1000) || r.IsStraggler(999) {
		t.Fatal("threshold boundary wrong")
	}
}

func TestJSONLWriteAndValidate(t *testing.T) {
	r := New(32)
	for i := 0; i < 10; i++ {
		r.Log(Record{TimeUS: int64(i * 100), Key: uint64(i) * 0x9e3779b97f4a7c15, Code: Code(i % int(numCodes)), Pairs: 8, CostNano: int64(i)})
	}
	var buf bytes.Buffer
	n, err := r.WriteJSONL(&buf)
	if err != nil || n != 10 {
		t.Fatalf("WriteJSONL = %d, %v", n, err)
	}
	got, err := Validate(&buf)
	if err != nil || got != 10 {
		t.Fatalf("Validate = %d, %v", got, err)
	}
}

func TestValidateFailsClosed(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"garbage":      "not json\n",
		"unknown code": `{"seq":0,"t_us":1,"key":"00","code":"nope","tier":0,"pairs":1,"queue_us":0,"batch_us":0,"predict_us":0,"cost_nano":0}` + "\n",
		"bad key":      `{"seq":0,"t_us":1,"key":"zz","code":"scored","tier":0,"pairs":1,"queue_us":0,"batch_us":0,"predict_us":0,"cost_nano":0}` + "\n",
		"seq regression": `{"seq":5,"t_us":1,"key":"00","code":"scored","tier":0,"pairs":1,"queue_us":0,"batch_us":0,"predict_us":0,"cost_nano":0}` + "\n" +
			`{"seq":4,"t_us":2,"key":"00","code":"scored","tier":0,"pairs":1,"queue_us":0,"batch_us":0,"predict_us":0,"cost_nano":0}` + "\n",
		"negative time": `{"seq":0,"t_us":-5,"key":"00","code":"scored","tier":0,"pairs":1,"queue_us":0,"batch_us":0,"predict_us":0,"cost_nano":0}` + "\n",
	}
	for name, in := range cases {
		if _, err := Validate(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: Validate accepted invalid input", name)
		}
	}
}

func TestCodeStringRoundTrip(t *testing.T) {
	for c := Code(0); c < numCodes; c++ {
		got, ok := CodeFromString(c.String())
		if !ok || got != c {
			t.Fatalf("code %d: round trip via %q failed", c, c.String())
		}
	}
	if _, ok := CodeFromString("bogus"); ok {
		t.Fatal("CodeFromString accepted a bogus name")
	}
}

func TestHashMatchesString(t *testing.T) {
	for _, s := range []string{"", "a", "pair key \x1f bytes", "日本語"} {
		f := fnv.New64a()
		f.Write([]byte(s))
		if Hash([]byte(s)) != f.Sum64() {
			t.Fatalf("Hash and hash/fnv's FNV-1a disagree on %q", s)
		}
	}
	if Hash([]byte("a")) == Hash([]byte("b")) {
		t.Fatal("distinct inputs collided (FNV-1a broken)")
	}
}

func TestDumperWritesAndRateLimits(t *testing.T) {
	dir := t.TempDir()
	r := New(32)
	r.Log(Record{TimeUS: 1, Code: CodeScored, Pairs: 1})
	d := NewDumper(r, dir, time.Hour)
	p1, err := d.Trigger("Breach: P99!")
	if err != nil || p1 == "" {
		t.Fatalf("Trigger = %q, %v", p1, err)
	}
	if base := filepath.Base(p1); base != "flight-000-breach--p99-.jsonl" {
		t.Fatalf("dump filename = %q", base)
	}
	f, err := os.Open(p1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, err := Validate(f); err != nil || n != 1 {
		t.Fatalf("dump not valid: %d, %v", n, err)
	}
	// Second trigger inside the gap is suppressed, not an error.
	p2, err := d.Trigger("again")
	if err != nil || p2 != "" {
		t.Fatalf("rate-limited Trigger = %q, %v", p2, err)
	}
	if got := d.Paths(); len(got) != 1 || got[0] != p1 {
		t.Fatalf("Paths = %v", got)
	}
}

func TestDumperAsync(t *testing.T) {
	dir := t.TempDir()
	r := New(32)
	r.Log(Record{TimeUS: 1, Pairs: 1})
	d := NewDumper(r, dir, time.Nanosecond)
	d.TriggerAsync("straggler")
	deadline := time.Now().Add(5 * time.Second)
	for len(d.Paths()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("async dump never landed")
		}
		time.Sleep(time.Millisecond)
	}
}
