// Package wire implements the serving system's compact binary protocol:
// a length-prefixed frame carrying a match request or response, served on
// the same HTTP port as the JSON API via content-type negotiation (see
// internal/serve). The encoding reuses internal/snap's Enc/Dec codec —
// uvarint length prefixes, fixed little-endian floats — so both binary
// formats in the repo share one set of primitives and one fuzzing
// posture.
//
// # Frame layout
//
//	offset  size  field
//	0       2     magic "EW"
//	2       1     version (currently 1)
//	3       1     frame type: 1 request, 2 response, 3 error
//	4       1-3   payload length (uvarint, capped at MaxPayload)
//	...     n     payload
//
// A request payload is
//
//	deadline_ms  uvarint
//	npairs       uvarint
//	per pair:    left_id bytes, nleft uvarint, nleft values (bytes),
//	             right_id bytes, nright uvarint, nright values (bytes)
//
// where "bytes" is a uvarint length followed by raw bytes. A response
// payload is
//
//	npairs       uvarint
//	predictions  ceil(npairs/8) bytes, LSB-first bitset
//	cached       ceil(npairs/8) bytes, LSB-first bitset
//	cost_usd     float64 (IEEE-754 bits, little-endian)
//	tokens       uvarint
//	elapsed_us   uvarint
//
// and an error payload is an HTTP-aligned status code (uvarint) followed
// by a message (bytes). Frames are self-delimiting; trailing bytes after
// the declared payload are a protocol error, mirroring snap.Dec.Finish.
//
// The server-side decode path is zero-copy: Request.Decode exposes the
// pair values as views into the frame buffer, and the serve package
// builds cache keys and serialized records directly from those views
// without materialising strings on the hot path. Each pair's encoded
// bytes are self-contained, so a relay regroups pairs by copying their
// Raw spans behind a new header (FrameRequest) instead of re-encoding.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/record"
	"repro/internal/snap"
)

// ContentType is the negotiated media type: POST /match bodies with this
// Content-Type are parsed as binary frames, and responses are framed the
// same way.
const ContentType = "application/x-em-wire"

// Version is the frame format version byte.
const Version = 1

// Frame types.
const (
	TReq  byte = 1
	TResp byte = 2
	TErr  byte = 3
)

// MaxPayload caps the declared payload length (16 MiB) so a corrupt or
// hostile length prefix can never drive allocation; the serve layer maps
// the violation to 413, the same status oversized JSON requests get.
const MaxPayload = 1 << 24

// headerLen is the fixed frame prefix before the payload-length uvarint.
const headerLen = 4

// Protocol errors. ErrTruncated and ErrCorrupt are the client's fault
// (400); ErrOversize parallels the JSON path's 413.
var (
	ErrTruncated  = errors.New("wire: truncated frame")
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrBadType    = errors.New("wire: unknown frame type")
	ErrOversize   = errors.New("wire: payload exceeds MaxPayload")
	ErrTrailing   = errors.New("wire: trailing bytes after frame")
	ErrCorrupt    = errors.New("wire: corrupt payload")
)

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice. It allocates only when dst lacks capacity.
func AppendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, 'E', 'W', Version, typ)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	dst = append(dst, lenBuf[:n]...)
	return append(dst, payload...)
}

// ParseFrame validates one complete frame in buf and returns its type and
// payload as a view into buf. The frame must fill buf exactly: missing
// bytes are ErrTruncated, extra bytes ErrTrailing.
func ParseFrame(buf []byte) (typ byte, payload []byte, err error) {
	if len(buf) < headerLen+1 {
		return 0, nil, ErrTruncated
	}
	if buf[0] != 'E' || buf[1] != 'W' {
		return 0, nil, ErrBadMagic
	}
	if buf[2] != Version {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadVersion, buf[2])
	}
	typ = buf[3]
	if typ != TReq && typ != TResp && typ != TErr {
		return 0, nil, fmt.Errorf("%w: %d", ErrBadType, typ)
	}
	n, sz := binary.Uvarint(buf[headerLen:])
	if sz == 0 {
		return 0, nil, ErrTruncated
	}
	if sz < 0 || n > MaxPayload {
		return 0, nil, ErrOversize
	}
	rest := buf[headerLen+sz:]
	if uint64(len(rest)) < n {
		return 0, nil, ErrTruncated
	}
	if uint64(len(rest)) > n {
		return 0, nil, ErrTrailing
	}
	return typ, rest[:n], nil
}

// PairView is one decoded request pair: record IDs and attribute values
// as views into the frame buffer. Views are valid only while the buffer
// is; consumers that outlive it (the scoring queue) must materialise
// records with Materialize.
type PairView struct {
	LeftID, RightID []byte
	Left, Right     [][]byte
	// Raw is the pair's encoded bytes as they sit in the payload, left ID
	// through the last right value: any ordered run of Raw spans behind a
	// FrameRequest header is a valid request carrying those pairs, which
	// is how the fleet front relays pairs without re-encoding them.
	Raw []byte
}

// Materialize copies the view into an owned record.Pair.
func (v PairView) Materialize() record.Pair {
	return record.Pair{
		Left:  record.Record{ID: string(v.LeftID), Values: viewStrings(v.Left)},
		Right: record.Record{ID: string(v.RightID), Values: viewStrings(v.Right)},
	}
}

func viewStrings(vals [][]byte) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = string(v)
	}
	return out
}

// pairSpan records where one pair's values sit in the flat vals slice, so
// PairView slices can be fixed up after vals stops growing (subslices
// taken mid-append would alias a stale backing array).
type pairSpan struct {
	leftID, rightID []byte
	l0, l1, r0, r1  int
	raw             []byte
}

// Request is a decoded match request. A Request is reusable: Decode
// resets it and reuses its internal slices, so a pooled Request reaches a
// zero-allocation steady state.
type Request struct {
	DeadlineMs int
	Pairs      []PairView

	dec   snap.Dec
	spans []pairSpan
	vals  [][]byte
}

// Decode parses a TReq payload. The decoded Pairs alias payload; they are
// valid until the next Decode or until payload's buffer is reused.
func (r *Request) Decode(payload []byte) error {
	d := &r.dec
	d.Reset(payload)
	r.Pairs = r.Pairs[:0]
	r.spans = r.spans[:0]
	r.vals = r.vals[:0]

	r.DeadlineMs = int(d.Uvarint())
	npairs := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	// A pair needs at least four bytes (two empty IDs, two zero value
	// counts); bounding npairs by the remaining bytes keeps a corrupt
	// prefix from driving allocation — the same posture as snap's
	// lenPrefix.
	if npairs > uint64(d.Remaining()/4)+1 {
		return fmt.Errorf("%w: pair count %d exceeds payload", ErrCorrupt, npairs)
	}
	for i := uint64(0); i < npairs; i++ {
		// Filled in place: spans and views are big enough that copying
		// them shows in the hit path's profile.
		r.spans = append(r.spans, pairSpan{})
		sp := &r.spans[len(r.spans)-1]
		var err error
		start := len(payload) - d.Remaining()
		sp.leftID = d.BytesView()
		if sp.l0, sp.l1, err = r.decodeValues(); err != nil {
			return err
		}
		sp.rightID = d.BytesView()
		if sp.r0, sp.r1, err = r.decodeValues(); err != nil {
			return err
		}
		end := len(payload) - d.Remaining()
		sp.raw = payload[start:end:end]
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, d.Remaining())
	}
	// vals is fully grown; PairView subslices are stable now.
	if cap(r.Pairs) < len(r.spans) {
		r.Pairs = make([]PairView, 0, len(r.spans))
	}
	r.Pairs = r.Pairs[:len(r.spans)]
	for i := range r.spans {
		sp, v := &r.spans[i], &r.Pairs[i]
		v.LeftID, v.RightID, v.Raw = sp.leftID, sp.rightID, sp.raw
		v.Left, v.Right = r.vals[sp.l0:sp.l1], r.vals[sp.r0:sp.r1]
	}
	return nil
}

// decodeValues reads one record's uvarint-counted value list into the
// flat vals slice and returns its [start, end) span.
func (r *Request) decodeValues() (start, end int, err error) {
	d := &r.dec
	nv := d.Uvarint()
	if err := d.Err(); err != nil {
		return 0, 0, err
	}
	// Each value costs at least one byte (its length prefix), so a count
	// beyond the remaining bytes is corrupt before anything allocates.
	if nv > uint64(d.Remaining()) {
		return 0, 0, fmt.Errorf("%w: value count %d exceeds payload", ErrCorrupt, nv)
	}
	start = len(r.vals)
	for j := uint64(0); j < nv; j++ {
		v := d.BytesView()
		if err := d.Err(); err != nil {
			return 0, 0, err
		}
		r.vals = append(r.vals, v)
	}
	return start, len(r.vals), nil
}

// AppendRequest encodes pairs as a complete request frame appended to
// dst. This is the client-side encoder (load generator, CLI); it is not
// allocation-free and does not need to be.
func AppendRequest(dst []byte, pairs []record.Pair, deadlineMs int) []byte {
	buf := make([]byte, RequestHeaderRoom)
	for _, p := range pairs {
		buf = AppendPair(buf, p)
	}
	return append(dst, FrameRequest(buf, deadlineMs, len(pairs))...)
}

// AppendPair appends p encoded as one request pair: the bytes Decode
// reports as the pair's PairView.Raw.
func AppendPair(dst []byte, p record.Pair) []byte {
	return appendRecord(appendRecord(dst, p.Left), p.Right)
}

func appendRecord(dst []byte, r record.Record) []byte {
	dst = appendString(dst, r.ID)
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for _, v := range r.Values {
		dst = appendString(dst, v)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// RequestHeaderRoom is the most bytes a request frame puts before its
// pairs: the frame header, the payload length, the deadline and the pair
// count. A sender that gathers pairs behind this much room can frame them
// in place with FrameRequest.
const RequestHeaderRoom = headerLen + 3*binary.MaxVarintLen64

// FrameRequest completes a request frame in place. buf holds
// RequestHeaderRoom bytes of room followed by npairs encoded pairs
// (AppendPair output or PairView.Raw spans); FrameRequest writes the
// header at the end of the room and returns the frame, a suffix of buf.
// It never allocates, and calling it again on the same buf rewrites the
// header, so one gathered batch can go out under a new deadline.
func FrameRequest(buf []byte, deadlineMs, npairs int) []byte {
	var pre [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(pre[:], uint64(deadlineMs))
	n += binary.PutUvarint(pre[n:], uint64(npairs))
	var size [binary.MaxVarintLen64]byte
	ns := binary.PutUvarint(size[:], uint64(n+len(buf)-RequestHeaderRoom))
	start := RequestHeaderRoom - n - ns - headerLen
	h := buf[start:RequestHeaderRoom]
	h[0], h[1], h[2], h[3] = 'E', 'W', Version, TReq
	copy(h[headerLen:], size[:ns])
	copy(h[headerLen+ns:], pre[:n])
	return buf[start:]
}

// AppendResponsePayload encodes a TResp payload into e (which the caller
// has Reset): prediction and cached bitsets, cost, tokens, elapsed time.
// Everything appends into e's buffer, so a pooled encoder makes this
// allocation-free.
func AppendResponsePayload(e *snap.Enc, preds, cached []bool, costUSD float64, tokens int, elapsedUs int64) {
	e.Uvarint(uint64(len(preds)))
	appendBits(e, preds)
	appendBits(e, cached)
	e.F64(costUSD)
	e.Uvarint(uint64(tokens))
	e.Uvarint(uint64(elapsedUs))
}

// appendBits packs bools LSB-first, eight per byte.
func appendBits(e *snap.Enc, bs []bool) {
	var cur byte
	nbits := 0
	for _, b := range bs {
		if b {
			cur |= 1 << nbits
		}
		nbits++
		if nbits == 8 {
			e.Byte(cur)
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		e.Byte(cur)
	}
}

// Response is a decoded match response. Like Request, it is reusable:
// Decode resets and reuses its slices.
type Response struct {
	Preds     []bool
	Cached    []bool
	CostUSD   float64
	Tokens    int
	ElapsedUs int64

	dec snap.Dec
}

// Decode parses a TResp payload.
func (r *Response) Decode(payload []byte) error {
	d := &r.dec
	d.Reset(payload)
	n := d.Uvarint()
	if err := d.Err(); err != nil {
		return err
	}
	nbytes := (n + 7) / 8
	if 2*nbytes > uint64(d.Remaining()) {
		return fmt.Errorf("%w: bitset length %d exceeds payload", ErrCorrupt, n)
	}
	r.Preds = readBits(r.Preds[:0], d, int(n))
	r.Cached = readBits(r.Cached[:0], d, int(n))
	r.CostUSD = d.F64()
	r.Tokens = int(d.Uvarint())
	r.ElapsedUs = int64(d.Uvarint())
	if err := d.Err(); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, d.Remaining())
	}
	return nil
}

func readBits(dst []bool, d *snap.Dec, n int) []bool {
	raw := d.RawView((n + 7) / 8)
	if raw == nil {
		return dst
	}
	for i := 0; i < n; i++ {
		dst = append(dst, raw[i/8]&(1<<(i%8)) != 0)
	}
	return dst
}

// Error is a decoded TErr payload: an HTTP-aligned status code and a
// human-readable message.
type Error struct {
	Code int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg) }

// AppendErrorPayload encodes a TErr payload into e (which the caller has
// Reset).
func AppendErrorPayload(e *snap.Enc, code int, msg string) {
	e.Uvarint(uint64(code))
	e.Str(msg)
}

// DecodeError parses a TErr payload.
func DecodeError(payload []byte) (*Error, error) {
	d := snap.NewDec(payload)
	code := d.Uvarint()
	msg := d.Str()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return &Error{Code: int(code), Msg: msg}, nil
}
