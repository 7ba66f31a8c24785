package snap

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc builds a frame payload from typed primitives. The encoding is
// fixed little-endian with uvarint length prefixes for variable-size
// values — byte-for-byte deterministic given the same write sequence,
// which is what the store's content addressing and the round-trip
// bit-identity tests rely on. Maps are not encoded directly; callers
// emit sorted key/value slices so iteration order can never leak into
// the bytes.
type Enc struct {
	buf []byte
}

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{} }

// Reset empties the encoder while keeping its buffer capacity, so pooled
// encoders (the wire protocol's response path) reach a zero-allocation
// steady state.
func (e *Enc) Reset() { e.buf = e.buf[:0] }

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// U64 appends a fixed 8-byte unsigned integer.
func (e *Enc) U64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 appends a fixed 8-byte signed integer.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as a fixed 8-byte signed integer.
func (e *Enc) Int(v int) { e.I64(int64(v)) }

// Uvarint appends a variable-length unsigned integer (used for length
// prefixes, where values are small).
func (e *Enc) Uvarint(v uint64) {
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	e.buf = append(e.buf, b[:n]...)
}

// F64 appends a float64 as its IEEE-754 bit pattern — exact, including
// negative zero and NaN payloads, so restored weights are bit-identical.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a boolean as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Byte appends a single raw byte.
func (e *Enc) Byte(b byte) { e.buf = append(e.buf, b) }

// F64s appends a length-prefixed []float64.
func (e *Enc) F64s(vs []float64) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.F64(v)
	}
}

// Ints appends a length-prefixed []int.
func (e *Enc) Ints(vs []int) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.I64(int64(v))
	}
}

// Strs appends a length-prefixed []string.
func (e *Enc) Strs(vs []string) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Str(v)
	}
}

// Dec decodes a frame payload written by Enc. Errors are sticky: after
// the first failure every accessor returns zero values and Err reports
// the failure, so decode sequences read linearly without per-call checks.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) *Dec { return &Dec{buf: payload} }

// Reset points the decoder at a new payload and clears any sticky error,
// so pooled decoders (the wire protocol's request path) decode without
// allocating a Dec per message.
func (d *Dec) Reset(payload []byte) {
	d.buf = payload
	d.off = 0
	d.err = nil
}

// Err returns the first decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Dec) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// take returns the next n bytes, or nil after recording an error.
func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail("need %d bytes at offset %d of %d", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U64 reads a fixed 8-byte unsigned integer.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed 8-byte signed integer.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Enc.Int.
func (d *Dec) Int() int { return int(d.I64()) }

// Uvarint reads a variable-length unsigned integer.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// F64 reads a float64 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads a boolean byte.
func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	switch b[0] {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail("bad bool byte 0x%02x", b[0])
		return false
	}
}

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.Remaining()) {
		d.fail("string length %d exceeds %d remaining bytes", n, d.Remaining())
		return ""
	}
	return string(d.take(int(n)))
}

// BytesView reads a length-prefixed byte field as a view into the payload
// — no copy, unlike Str. The view aliases the decoder's buffer, so it is
// valid only while the payload is; callers that outlive the buffer must
// copy.
func (d *Dec) BytesView() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail("bytes length %d exceeds %d remaining bytes", n, d.Remaining())
		return nil
	}
	return d.take(int(n))
}

// RawView returns the next n bytes as a view into the payload — the
// reader for Enc.Raw, where the caller knows the byte count from its own
// framing.
func (d *Dec) RawView(n int) []byte { return d.take(n) }

// lenPrefix reads a slice length, bounding it by the remaining bytes at
// the given minimum element width so corrupt prefixes fail instead of
// allocating.
func (d *Dec) lenPrefix(elemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemBytes > 0 && n > uint64(d.Remaining()/elemBytes) {
		d.fail("slice length %d exceeds %d remaining bytes", n, d.Remaining())
		return 0
	}
	return int(n)
}

// F64s reads a length-prefixed []float64. A zero-length slice decodes as
// nil, matching how Go serialisation round-trips empty state.
func (d *Dec) F64s() []float64 {
	n := d.lenPrefix(8)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.F64()
	}
	return vs
}

// Ints reads a length-prefixed []int.
func (d *Dec) Ints() []int {
	n := d.lenPrefix(8)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = d.Int()
	}
	return vs
}

// Strs reads a length-prefixed []string.
func (d *Dec) Strs() []string {
	n := d.lenPrefix(1)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]string, n)
	for i := range vs {
		vs[i] = d.Str()
	}
	return vs
}

// Tag reads a string and verifies it equals want — the per-matcher state
// version check at the head of every snapshot payload.
func (d *Dec) Tag(want string) {
	got := d.Str()
	if d.err == nil && got != want {
		d.err = fmt.Errorf("%w: state tag %q, want %q", ErrMismatch, got, want)
	}
}

// Finish verifies the payload was consumed exactly and returns the first
// error. Trailing bytes mean the writer and reader disagree about the
// format — corrupt by definition.
func (d *Dec) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	return nil
}
