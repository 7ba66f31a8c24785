// Package snap is the persistence subsystem of the reproduction: a
// versioned binary codec for trained-matcher state, a content-addressed
// on-disk artifact store for checkpoints, and a JSONL run journal that
// makes leave-one-dataset-out studies resumable.
//
// The paper's cost argument (Table 6, §6) is that fine-tuned SLMs amortise
// a one-time training cost over cheap inference — which only holds if the
// trained artifact survives the process. This package makes it survive:
//
//   - The codec (this file) frames named records with per-record CRC32
//     checksums behind a magic/version header, so a snapshot is
//     self-describing and every corruption mode — truncation, flipped
//     bytes, wrong version, wrong format — fails closed with a typed
//     error instead of a silently wrong model.
//
//   - Snapshotter (snapshot.go) is the interface every trained matcher
//     implements; the contract is strict determinism: a restored matcher
//     predicts bit-identically to the freshly trained one.
//
//   - Store (store.go) addresses snapshots by the SHA-256 of what
//     produced them — matcher name and configuration, transfer-dataset
//     fingerprints, seed — with atomic rename-on-write, a lock file
//     against concurrent writers, and GC for unreferenced artifacts.
//
//   - Journal (journal.go) records completed (matcher, target, seed)
//     evaluation cells so an interrupted study resumes where it stopped
//     and reproduces the uninterrupted output bit-identically.
//
// The package is dependency-free by design (stdlib plus the nil-safe obs
// metrics registry), so every layer of the repository can depend on it
// without cycles.
package snap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic identifies a snap-codec stream; it is the first thing in every
// snapshot file.
const Magic = "EMSNAP"

// Version is the current codec version. Readers reject other versions:
// the codec is self-describing, not self-migrating.
const Version uint16 = 1

// Frame size limits. They exist to fail fast on corrupt length prefixes:
// a flipped byte in a uvarint must surface as ErrCorrupt, not as an
// attempt to allocate gigabytes.
const (
	// MaxFrameName bounds a frame's name length in bytes.
	MaxFrameName = 256
	// MaxFramePayload bounds a frame's payload length in bytes. The
	// largest real payload is Unicorn's expert weights at the LLaMA3.2
	// hash width (~100 MB of float64s); 1 GiB leaves headroom without
	// admitting nonsense lengths.
	MaxFramePayload = 1 << 30
)

// Typed codec errors. Callers match with errors.Is; every decode failure
// wraps exactly one of these.
var (
	// ErrBadMagic reports a stream that does not start with Magic.
	ErrBadMagic = errors.New("snap: bad magic (not a snapshot)")
	// ErrBadVersion reports a stream written by an unsupported codec
	// version.
	ErrBadVersion = errors.New("snap: unsupported codec version")
	// ErrChecksum reports a frame whose CRC32 does not match its content.
	ErrChecksum = errors.New("snap: checksum mismatch")
	// ErrTruncated reports a stream that ends mid-frame or before the end
	// sentinel.
	ErrTruncated = errors.New("snap: truncated stream")
	// ErrCorrupt reports structurally invalid framing (absurd lengths,
	// frame-count mismatch, malformed state payloads).
	ErrCorrupt = errors.New("snap: corrupt stream")
	// ErrLocked reports a store whose lock file is held by another writer.
	ErrLocked = errors.New("snap: store is locked by another writer")
	// ErrNotFound reports a store lookup whose key has no artifact.
	ErrNotFound = errors.New("snap: snapshot not found")
	// ErrMismatch reports a snapshot whose recorded identity does not fit
	// the restore target (wrong matcher, wrong state tag).
	ErrMismatch = errors.New("snap: snapshot does not match restore target")
)

// crcTable is the IEEE polynomial table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.IEEE)

// FrameWriter writes a codec stream: header, CRC32-framed named records,
// end sentinel. Errors are sticky; check Close.
type FrameWriter struct {
	w      *bufio.Writer
	frames uint64
	err    error
	closed bool
}

// NewFrameWriter writes the stream header and returns the writer.
func NewFrameWriter(w io.Writer) *FrameWriter {
	fw := &FrameWriter{w: bufio.NewWriter(w)}
	if _, err := fw.w.WriteString(Magic); err != nil {
		fw.err = err
		return fw
	}
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], Version)
	if _, err := fw.w.Write(v[:]); err != nil {
		fw.err = err
	}
	return fw
}

// WriteFrame appends one named frame. Frame names are non-empty (the
// empty name is reserved for the end sentinel).
func (fw *FrameWriter) WriteFrame(name string, payload []byte) error {
	if fw.err != nil {
		return fw.err
	}
	if fw.closed {
		fw.err = fmt.Errorf("snap: write after Close")
		return fw.err
	}
	if name == "" {
		fw.err = fmt.Errorf("snap: empty frame name is reserved")
		return fw.err
	}
	if len(name) > MaxFrameName {
		fw.err = fmt.Errorf("snap: frame name %d bytes exceeds limit %d", len(name), MaxFrameName)
		return fw.err
	}
	if len(payload) > MaxFramePayload {
		fw.err = fmt.Errorf("snap: frame payload %d bytes exceeds limit %d", len(payload), MaxFramePayload)
		return fw.err
	}
	if err := fw.emit(name, payload); err != nil {
		fw.err = err
		return err
	}
	fw.frames++
	return nil
}

// emit writes the raw frame structure: uvarint name length, name, uvarint
// payload length, payload, CRC32-IEEE(name || payload) little-endian.
func (fw *FrameWriter) emit(name string, payload []byte) error {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(name)))
	if _, err := fw.w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := fw.w.WriteString(name); err != nil {
		return err
	}
	n = binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := fw.w.Write(lenBuf[:n]); err != nil {
		return err
	}
	if _, err := fw.w.Write(payload); err != nil {
		return err
	}
	crc := crc32.Update(crc32.Checksum([]byte(name), crcTable), crcTable, payload)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc)
	_, err := fw.w.Write(crcBuf[:])
	return err
}

// Close writes the end sentinel — an empty-name frame whose payload is
// the little-endian frame count — and flushes. The sentinel lets readers
// distinguish a complete stream from one truncated at a frame boundary.
func (fw *FrameWriter) Close() error {
	if fw.err != nil {
		return fw.err
	}
	if fw.closed {
		return nil
	}
	fw.closed = true
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], fw.frames)
	if err := fw.emit("", count[:]); err != nil {
		fw.err = err
		return err
	}
	if err := fw.w.Flush(); err != nil {
		fw.err = err
		return err
	}
	return nil
}

// FrameReader reads a codec stream written by FrameWriter, verifying the
// header, every frame checksum and the end sentinel.
type FrameReader struct {
	r      *bufio.Reader
	frames uint64
	done   bool
}

// NewFrameReader validates the stream header and returns the reader.
func NewFrameReader(r io.Reader) (*FrameReader, error) {
	fr := &FrameReader{r: bufio.NewReader(r)}
	head := make([]byte, len(Magic)+2)
	if _, err := io.ReadFull(fr.r, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("%w: %d-byte header", ErrTruncated, len(head))
		}
		return nil, err
	}
	if string(head[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: got %q", ErrBadMagic, head[:len(Magic)])
	}
	if v := binary.LittleEndian.Uint16(head[len(Magic):]); v != Version {
		return nil, fmt.Errorf("%w: stream v%d, reader v%d", ErrBadVersion, v, Version)
	}
	return fr, nil
}

// ReadFrame returns the next frame. At the end sentinel it validates the
// frame count and returns io.EOF.
func (fr *FrameReader) ReadFrame() (name string, payload []byte, err error) {
	if fr.done {
		return "", nil, io.EOF
	}
	nameLen, err := fr.readLen(MaxFrameName, "frame name")
	if err != nil {
		return "", nil, err
	}
	nameBuf := make([]byte, nameLen)
	if err := fr.fill(nameBuf); err != nil {
		return "", nil, err
	}
	payloadLen, err := fr.readLen(MaxFramePayload, "frame payload")
	if err != nil {
		return "", nil, err
	}
	payload = make([]byte, payloadLen)
	if err := fr.fill(payload); err != nil {
		return "", nil, err
	}
	var crcBuf [4]byte
	if err := fr.fill(crcBuf[:]); err != nil {
		return "", nil, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	got := crc32.Update(crc32.Checksum(nameBuf, crcTable), crcTable, payload)
	if got != want {
		return "", nil, fmt.Errorf("%w: frame %q", ErrChecksum, nameBuf)
	}
	if nameLen == 0 {
		// End sentinel: payload is the frame count.
		if payloadLen != 8 {
			return "", nil, fmt.Errorf("%w: sentinel payload %d bytes", ErrCorrupt, payloadLen)
		}
		if count := binary.LittleEndian.Uint64(payload); count != fr.frames {
			return "", nil, fmt.Errorf("%w: sentinel records %d frames, read %d", ErrCorrupt, count, fr.frames)
		}
		fr.done = true
		return "", nil, io.EOF
	}
	fr.frames++
	return string(nameBuf), payload, nil
}

// readLen reads a uvarint length prefix bounded by limit.
func (fr *FrameReader) readLen(limit uint64, what string) (uint64, error) {
	n, err := binary.ReadUvarint(fr.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("%w: %s length", ErrTruncated, what)
		}
		return 0, fmt.Errorf("%w: %s length: %v", ErrCorrupt, what, err)
	}
	if n > limit {
		return 0, fmt.Errorf("%w: %s length %d exceeds limit %d", ErrCorrupt, what, n, limit)
	}
	return n, nil
}

// fill reads exactly len(buf) bytes, mapping EOF to ErrTruncated.
func (fr *FrameReader) fill(buf []byte) error {
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: mid-frame", ErrTruncated)
		}
		return err
	}
	return nil
}
