package snap

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// writeFrames builds a well-formed snapshot byte stream from name/payload
// pairs.
func writeFrames(t *testing.T, frames ...[2]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for _, f := range frames {
		if err := w.WriteFrame(f[0], []byte(f[1])); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	data := writeFrames(t, [2]string{"meta", "hello"}, [2]string{"state", strings.Repeat("x", 1000)})
	r, err := NewFrameReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("NewFrameReader: %v", err)
	}
	name, payload, err := r.ReadFrame()
	if err != nil || name != "meta" || string(payload) != "hello" {
		t.Fatalf("frame 1 = %q %q %v", name, payload, err)
	}
	name, payload, err = r.ReadFrame()
	if err != nil || name != "state" || len(payload) != 1000 {
		t.Fatalf("frame 2 = %q len %d %v", name, len(payload), err)
	}
	if _, _, err := r.ReadFrame(); err != io.EOF {
		t.Fatalf("want io.EOF at sentinel, got %v", err)
	}
	if r.frames != 2 {
		t.Fatalf("read %d frames, want 2", r.frames)
	}
}

func TestFrameReaderFailsClosed(t *testing.T) {
	good := writeFrames(t, [2]string{"meta", "hello world"}, [2]string{"state", "payload bytes"})

	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xFF
		if _, err := NewFrameReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("wrong version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(Magic)] = 0xFF // version little-endian low byte
		if _, err := NewFrameReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		if _, err := NewFrameReader(bytes.NewReader(good[:4])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("got %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		for _, cut := range []int{len(good) - 1, len(good) - 9, len(Magic) + 3} {
			r, err := NewFrameReader(bytes.NewReader(good[:cut]))
			if err != nil {
				continue // truncated inside the header: already fails closed
			}
			for {
				_, _, err = r.ReadFrame()
				if err != nil {
					break
				}
			}
			if err == io.EOF || err == nil {
				t.Fatalf("cut %d: truncated stream read to clean EOF", cut)
			}
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// Flip every byte position after the header in turn; every variant
		// must fail with a typed error, never succeed or panic.
		for i := len(Magic) + 2; i < len(good); i++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 0x40
			r, err := NewFrameReader(bytes.NewReader(bad))
			if err != nil {
				continue
			}
			var n int
			for {
				_, _, err = r.ReadFrame()
				if err != nil {
					break
				}
				n++
			}
			if err == io.EOF && n != 2 {
				t.Fatalf("flip at %d: stream truncated silently (%d frames)", i, n)
			}
			if err != io.EOF &&
				!errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("flip at %d: untyped error %v", i, err)
			}
		}
	})
}

func TestFrameWriterLimits(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.WriteFrame("", []byte("x")); err == nil {
		t.Fatal("empty frame name accepted")
	}
	if err := w.WriteFrame(strings.Repeat("n", MaxFrameName+1), nil); err == nil {
		t.Fatal("oversize frame name accepted")
	}
}

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc()
	e.U64(math.MaxUint64)
	e.I64(-42)
	e.Int(123456)
	e.Uvarint(300)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Bool(true)
	e.Bool(false)
	e.Str("hello κόσμε")
	e.F64s([]float64{1.5, -2.5, 0})
	e.Ints([]int{7, -7})
	e.Strs([]string{"a", "", "c"})

	d := NewDec(e.Bytes())
	if got := d.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("I64 = %d", got)
	}
	if got := d.Int(); got != 123456 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("F64 inf = %v", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.Str(); got != "hello κόσμε" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.F64s(); len(got) != 3 || got[1] != -2.5 {
		t.Fatalf("F64s = %v", got)
	}
	if got := d.Ints(); len(got) != 2 || got[1] != -7 {
		t.Fatalf("Ints = %v", got)
	}
	if got := d.Strs(); len(got) != 3 || got[2] != "c" {
		t.Fatalf("Strs = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecFailsClosed(t *testing.T) {
	t.Run("trailing bytes", func(t *testing.T) {
		e := NewEnc()
		e.Bool(true)
		e.Bool(true)
		d := NewDec(e.Bytes())
		d.Bool()
		if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("short buffer sticky", func(t *testing.T) {
		d := NewDec([]byte{1, 2})
		d.U64()
		if d.Err() == nil {
			t.Fatal("short U64 read succeeded")
		}
		// Every later read no-ops under the sticky error.
		if got := d.Str(); got != "" {
			t.Fatalf("read after error = %q", got)
		}
	})
	t.Run("huge length prefix", func(t *testing.T) {
		e := NewEnc()
		e.Uvarint(1 << 40) // claims a petabyte of strings
		d := NewDec(e.Bytes())
		if got := d.Strs(); got != nil {
			t.Fatalf("Strs = %v", got)
		}
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", d.Err())
		}
	})
	t.Run("tag mismatch", func(t *testing.T) {
		e := NewEnc()
		e.Str("ditto/v1")
		d := NewDec(e.Bytes())
		d.Tag("unicorn/v1")
		if !errors.Is(d.Err(), ErrMismatch) {
			t.Fatalf("got %v, want ErrMismatch", d.Err())
		}
	})
}
