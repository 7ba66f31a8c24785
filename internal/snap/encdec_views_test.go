package snap

import (
	"bytes"
	"testing"
)

// TestEncDecViewHelpers covers the zero-copy codec additions the wire
// protocol is built on: Reset, BytesView, RawView, Byte.
func TestEncDecViewHelpers(t *testing.T) {
	e := NewEnc()
	e.Str("hello")
	e.Str("")
	e.Byte(0x7F)
	e.buf = append(e.buf, 1, 2, 3)
	payload := e.Bytes()

	d := NewDec(payload)
	if v := d.BytesView(); !bytes.Equal(v, []byte("hello")) {
		t.Fatalf("BytesView = %q", v)
	}
	if v := d.BytesView(); len(v) != 0 {
		t.Fatalf("empty BytesView = %q", v)
	}
	if v := d.RawView(1); len(v) != 1 || v[0] != 0x7F {
		t.Fatalf("RawView(1) = %v", v)
	}
	if v := d.RawView(3); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("RawView(3) = %v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Views alias the payload, not a copy.
	d.Reset(payload)
	v := d.BytesView()
	if &v[0] != &payload[1] { // payload[0] is the length prefix
		t.Fatal("BytesView copied instead of aliasing")
	}

	// Overlong view reads fail closed.
	d.Reset([]byte{0x05, 'a'})
	if v := d.BytesView(); v != nil {
		t.Fatalf("overlong BytesView = %q", v)
	}
	if d.Err() == nil {
		t.Fatal("overlong BytesView left no error")
	}

	// Enc.Reset keeps capacity, empties content.
	before := cap(e.buf)
	e.Reset()
	if len(e.buf) != 0 || cap(e.buf) != before {
		t.Fatalf("Reset: len %d cap %d (want 0, %d)", len(e.buf), cap(e.buf), before)
	}

	// Dec.Reset clears a sticky error.
	d.Reset([]byte{0x01, 'x'})
	if d.Err() != nil {
		t.Fatal("Reset kept sticky error")
	}
	if v := d.BytesView(); !bytes.Equal(v, []byte("x")) {
		t.Fatalf("post-Reset BytesView = %q", v)
	}
}
