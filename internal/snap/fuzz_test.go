package snap

import (
	"bytes"
	"testing"
)

// FuzzFrameReader drives the frame reader and the snapshot verifier with
// arbitrary bytes: any input must terminate with a clean EOF or a typed
// error — never a panic, never an unbounded allocation. The seed corpus
// covers a valid stream and the interesting prefixes of one.
func FuzzFrameReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_ = w.WriteFrame("meta", []byte("some metadata payload"))
	_ = w.WriteFrame("state", bytes.Repeat([]byte{0xAB}, 256))
	_ = w.Close()
	valid := buf.Bytes()

	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:len(valid)/2])
	f.Add(append([]byte(nil), valid[1:]...))
	mutated := append([]byte(nil), valid...)
	mutated[len(Magic)+5] ^= 0xFF
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := NewFrameReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Bound the walk: a frame is at least 6 bytes on the wire, so a
		// stream can't hold more frames than bytes/6 + 1.
		for i := 0; i <= len(data)/6+1; i++ {
			if _, _, err := fr.ReadFrame(); err != nil {
				break
			}
		}
		// The snapshot verifier must be equally robust.
		_, _ = Verify(bytes.NewReader(data))
	})
}

// FuzzDec drives the payload decoder with arbitrary bytes through a
// representative read sequence.
func FuzzDec(f *testing.F) {
	e := NewEnc()
	e.Str("tag/v1")
	e.Int(7)
	e.F64s([]float64{1, 2, 3})
	e.Strs([]string{"a", "b"})
	e.Bool(true)
	f.Add(e.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDec(data)
		d.Tag("tag/v1")
		_ = d.Int()
		_ = d.F64s()
		_ = d.Strs()
		_ = d.Bool()
		_ = d.Finish()
	})
}
