// Package flight is the per-request flight recorder: a fixed-size,
// lock-free ring of compact request records written from the serving
// dispatcher and the routing cascade on every request. Writes are a
// handful of atomic stores (0 allocs/op, safe from any goroutine, nil
// recorder disabled); the ring always holds the most recent N requests,
// so when an SLO breaches or a straggler lands, a snapshot of the ring
// IS the evidence — dumped to JSONL by the Dumper and validated by
// `emtool trace -flight`.
package flight

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
)

// Code classifies how a request left the pipeline.
type Code uint8

const (
	// CodeScored: the request was scored by a matcher or routed cascade.
	CodeScored Code = iota
	// CodeCacheHit: every pair answered from the prediction cache.
	CodeCacheHit
	// CodeShedQueue: rejected because the admission queue was full (429).
	CodeShedQueue
	// CodeShedDrain: rejected because the server was draining (503).
	CodeShedDrain
	// CodeShedSLO: rejected by the SLO-breach admission guard (429).
	CodeShedSLO
	// CodeExpired: admitted but its deadline passed before scoring (504).
	CodeExpired
	// CodeError: failed with a terminal error.
	CodeError
	// CodeDegraded: the routing cascade exhausted every tier and fell
	// back to a degraded cheap score.
	CodeDegraded
	numCodes
)

var codeNames = [numCodes]string{
	"scored", "cache_hit", "shed_queue", "shed_drain", "shed_slo",
	"expired", "error", "degraded",
}

// String returns the stable wire name of the code.
func (c Code) String() string {
	if c < numCodes {
		return codeNames[c]
	}
	return "code_" + strconv.Itoa(int(c))
}

// CodeFromString inverts String; ok is false for unknown names.
func CodeFromString(s string) (Code, bool) {
	for i, n := range codeNames {
		if n == s {
			return Code(i), true
		}
	}
	return 0, false
}

// MarshalJSON writes the code as its string name.
func (c Code) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.String())
}

// UnmarshalJSON reads a string code name, failing closed on unknown
// names so Validate catches corrupted dumps.
func (c *Code) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, ok := CodeFromString(s)
	if !ok {
		return fmt.Errorf("flight: unknown code %q", s)
	}
	*c = v
	return nil
}

// Record is one request's flight record. The fields are sized to pack
// into five 64-bit words (plus a sequence stamp) in the ring:
//
//	Seq       ring-global sequence number (assigned by Log)
//	TimeUS    µs since an epoch the writer chooses (serve: process
//	          start; route: the router clock — virtual-clock runs are
//	          deterministic)
//	Key       hash of the request's canonical pair keys (identity for
//	          correlating records, not reversible)
//	Code      how the request left the pipeline
//	Tier      routing tier that answered (-1 when unrouted/not scored)
//	Pairs     pair count (clamped to 65535)
//	QueueUS   admission-queue wait
//	BatchUS   micro-batch residency (drain → delivery)
//	PredictUS matcher/backend predict time
//	CostNano  nano-dollars charged (Table-6 pricing; 1e9 = $1)
type Record struct {
	Seq       int64  `json:"seq"`
	TimeUS    int64  `json:"t_us"`
	Key       uint64 `json:"-"`
	Code      Code   `json:"code"`
	Tier      int8   `json:"tier"`
	Pairs     uint16 `json:"pairs"`
	QueueUS   uint32 `json:"queue_us"`
	BatchUS   uint32 `json:"batch_us"`
	PredictUS uint32 `json:"predict_us"`
	CostNano  int64  `json:"cost_nano"`
}

// recordJSON is the wire shadow of Record: the key travels as a hex
// string (JSON numbers lose uint64 precision past 2^53).
type recordJSON struct {
	Seq       int64  `json:"seq"`
	TimeUS    int64  `json:"t_us"`
	Key       string `json:"key"`
	Code      Code   `json:"code"`
	Tier      int8   `json:"tier"`
	Pairs     uint16 `json:"pairs"`
	QueueUS   uint32 `json:"queue_us"`
	BatchUS   uint32 `json:"batch_us"`
	PredictUS uint32 `json:"predict_us"`
	CostNano  int64  `json:"cost_nano"`
}

// MarshalJSON renders the record with the key as 16 hex digits.
func (r Record) MarshalJSON() ([]byte, error) {
	return json.Marshal(recordJSON{
		Seq: r.Seq, TimeUS: r.TimeUS, Key: fmt.Sprintf("%016x", r.Key),
		Code: r.Code, Tier: r.Tier, Pairs: r.Pairs,
		QueueUS: r.QueueUS, BatchUS: r.BatchUS, PredictUS: r.PredictUS,
		CostNano: r.CostNano,
	})
}

// UnmarshalJSON inverts MarshalJSON, failing closed on malformed keys.
func (r *Record) UnmarshalJSON(b []byte) error {
	var j recordJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	key, err := strconv.ParseUint(j.Key, 16, 64)
	if err != nil {
		return fmt.Errorf("flight: bad key %q: %w", j.Key, err)
	}
	*r = Record{
		Seq: j.Seq, TimeUS: j.TimeUS, Key: key, Code: j.Code, Tier: j.Tier,
		Pairs: j.Pairs, QueueUS: j.QueueUS, BatchUS: j.BatchUS,
		PredictUS: j.PredictUS, CostNano: j.CostNano,
	}
	return nil
}

// slot is one ring entry: five payload words and a stamp word. The
// writer zeroes the stamp, stores the payload, then publishes the stamp
// (seq+1) last; a reader accepts the slot only if the stamp reads the
// expected value before AND after copying the payload, so torn reads
// under wrap-around are detected and skipped rather than surfaced.
type slot struct {
	w [6]atomic.Uint64
}

const (
	wTime = iota
	wKey
	wQueuePredict // QueueUS<<32 | PredictUS
	wMisc         // BatchUS<<32 | Pairs<<16 | uint8(Tier)<<8 | Code
	wCost
	wStamp // seq+1, stored last
)

// Recorder is the lock-free ring. A nil *Recorder is a valid disabled
// recorder: Log and Snapshot return immediately.
type Recorder struct {
	slots []slot
	mask  uint64
	seq   atomic.Uint64
	// stragglerUS is the latency threshold (µs) above which a request
	// counts as a p99 straggler worth dumping evidence for; 0 disables.
	stragglerUS atomic.Int64
}

// New returns a recorder holding the most recent `size` records,
// rounded up to a power of two (minimum 16).
func New(size int) *Recorder {
	if size < 16 {
		size = 16
	}
	n := 1 << bits.Len(uint(size-1)) // next power of two
	return &Recorder{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Size returns the ring capacity in records (0 when disabled).
func (r *Recorder) Size() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Len returns how many records the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if n := r.seq.Load(); n < uint64(len(r.slots)) {
		return int(n)
	}
	return len(r.slots)
}

// Log appends one record to the ring. Lock-free, 0 allocs/op, safe
// from any goroutine; rec.Seq is ignored (the recorder assigns it).
func (r *Recorder) Log(rec Record) {
	if r == nil {
		return
	}
	i := r.seq.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.w[wStamp].Store(0) // invalidate while rewriting
	s.w[wTime].Store(uint64(rec.TimeUS))
	s.w[wKey].Store(rec.Key)
	s.w[wQueuePredict].Store(uint64(rec.QueueUS)<<32 | uint64(rec.PredictUS))
	s.w[wMisc].Store(uint64(rec.BatchUS)<<32 | uint64(rec.Pairs)<<16 |
		uint64(uint8(rec.Tier))<<8 | uint64(rec.Code))
	s.w[wCost].Store(uint64(rec.CostNano))
	s.w[wStamp].Store(i + 1) // publish
}

// Snapshot appends a consistent copy of the ring's current contents to
// dst (oldest first, by sequence number) and returns it. Slots being
// concurrently rewritten are skipped, never surfaced torn.
func (r *Recorder) Snapshot(dst []Record) []Record {
	if r == nil {
		return dst
	}
	end := r.seq.Load()
	start := uint64(0)
	if n := uint64(len(r.slots)); end > n {
		start = end - n
	}
	for i := start; i < end; i++ {
		s := &r.slots[i&r.mask]
		stamp := s.w[wStamp].Load()
		if stamp != i+1 {
			continue // not yet published, or already overwritten
		}
		rec := Record{
			Seq:      int64(i),
			TimeUS:   int64(s.w[wTime].Load()),
			Key:      s.w[wKey].Load(),
			CostNano: int64(s.w[wCost].Load()),
		}
		qp := s.w[wQueuePredict].Load()
		rec.QueueUS = uint32(qp >> 32)
		rec.PredictUS = uint32(qp)
		misc := s.w[wMisc].Load()
		rec.BatchUS = uint32(misc >> 32)
		rec.Pairs = uint16(misc >> 16)
		rec.Tier = int8(uint8(misc >> 8))
		rec.Code = Code(uint8(misc))
		if s.w[wStamp].Load() != stamp {
			continue // overwritten mid-copy
		}
		dst = append(dst, rec)
	}
	return dst
}

// SetStragglerUS publishes the straggler latency threshold in µs
// (0 disables). The serving tick loop refreshes it from the live p99.
func (r *Recorder) SetStragglerUS(us int64) {
	if r == nil {
		return
	}
	r.stragglerUS.Store(us)
}

// IsStraggler reports whether a request latency crosses the published
// threshold. False on a nil recorder or an unset threshold.
func (r *Recorder) IsStraggler(latencyUS int64) bool {
	if r == nil {
		return false
	}
	thr := r.stragglerUS.Load()
	return thr > 0 && latencyUS >= thr
}

// WriteJSONL snapshots the ring and writes one record per line, oldest
// first. Returns the record count written.
func (r *Recorder) WriteJSONL(w io.Writer) (int, error) {
	recs := r.Snapshot(nil)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return 0, err
		}
	}
	return len(recs), bw.Flush()
}

// ClampUS saturates a µs reading into the record's uint32 timing fields
// (negative readings clamp to 0, overflows to ~71 minutes).
func ClampUS(us int64) uint32 {
	if us < 0 {
		return 0
	}
	if us > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(us)
}

// ClampPairs saturates a pair count into the record's uint16 field.
func ClampPairs(n int) uint16 {
	if n < 0 {
		return 0
	}
	if n > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(n)
}

// FNV-1a 64-bit, the repo's stock non-cryptographic identity hash.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns the FNV-1a 64 hash of b — the key-hash convention for
// flight records (hash of canonical pair-key bytes, XOR-folded across
// a request's pairs).
func Hash(b []byte) uint64 {
	h := uint64(fnvOffset)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// Validate reads a flight-recorder JSONL dump and checks its
// invariants: every line parses as a Record, codes are known, sequence
// numbers strictly increase, and counters are sane. Returns the record
// count. An empty dump is an error — a breach dump with no evidence is
// itself a bug.
func Validate(rd io.Reader) (int, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	n := 0
	lastSeq := int64(-1)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, fmt.Errorf("flight: line %d: %w", n+1, err)
		}
		if rec.Seq <= lastSeq {
			return n, fmt.Errorf("flight: line %d: seq %d not after %d", n+1, rec.Seq, lastSeq)
		}
		if rec.TimeUS < 0 {
			return n, fmt.Errorf("flight: line %d: negative t_us %d", n+1, rec.TimeUS)
		}
		if rec.Code >= numCodes {
			return n, fmt.Errorf("flight: line %d: unknown code %d", n+1, rec.Code)
		}
		lastSeq = rec.Seq
		n++
	}
	if err := sc.Err(); err != nil {
		return n, err
	}
	if n == 0 {
		return 0, errors.New("flight: empty dump")
	}
	return n, nil
}
