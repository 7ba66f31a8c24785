package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// Key is the content address of a snapshot: everything that determines
// the trained state. Two trainings with the same key produce the same
// matcher (the repository's determinism contract), so the store can hand
// back a cached artifact instead of retraining.
type Key struct {
	// Matcher is the matcher's registry or display name.
	Matcher string
	// Config is the configuration fingerprint (ConfigOf), so a tweaked
	// TrainCap or threshold never collides with the stock configuration.
	Config string
	// Data holds the transfer-dataset content fingerprints
	// (record.Dataset.Fingerprint) in training order. Regenerated data
	// with the same names but different content addresses differently.
	Data []string
	// Seed is the training seed.
	Seed uint64
}

// Hash returns the SHA-256 hex address of the key.
func (k Key) Hash() string {
	e := NewEnc()
	e.Str(k.Matcher)
	e.Str(k.Config)
	e.Strs(k.Data)
	e.U64(k.Seed)
	sum := sha256.Sum256(e.Bytes())
	return hex.EncodeToString(sum[:])
}

// DefaultLockTimeout bounds how long store writers wait for the lock
// file before giving up with ErrLocked.
const DefaultLockTimeout = 10 * time.Second

// Store is a content-addressed snapshot store rooted at a directory:
//
//	<dir>/objects/<sha256>.snap   artifacts, named by Key.Hash
//	<dir>/refs/<name>             named pointers into objects/
//	<dir>/lock                    writer lock file
//
// Reads are lock-free (artifacts are immutable once renamed into
// place); writes — Save, SetRef, GC — serialise on the lock
// file, which also guards against concurrent writer processes.
type Store struct {
	dir string
	// LockTimeout bounds lock acquisition; zero means DefaultLockTimeout.
	LockTimeout time.Duration

	hits      *obs.Counter
	misses    *obs.Counter
	saves     *obs.Counter
	gcRemoved *obs.Counter
	loadUS    *obs.Histogram
	saveUS    *obs.Histogram
}

// Open creates (if needed) and opens a store at dir. The registry may be
// nil: obs hands out nil handles that no-op, so an unmetered store costs
// nothing.
func Open(dir string, reg *obs.Registry) (*Store, error) {
	for _, sub := range []string{objectsDir, refsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("snap: opening store: %w", err)
		}
	}
	s := &Store{dir: dir}
	s.hits = reg.Counter("snap_store_hits_total", "snapshot loads that found an artifact")
	s.misses = reg.Counter("snap_store_misses_total", "snapshot loads with no artifact for the key")
	s.saves = reg.Counter("snap_store_saves_total", "snapshot artifacts written")
	s.gcRemoved = reg.Counter("snap_store_gc_removed_total", "unreferenced artifacts removed by GC")
	s.loadUS = reg.Log2Histogram("snap_store_load_us", "snapshot load+restore latency (µs)")
	s.saveUS = reg.Log2Histogram("snap_store_save_us", "snapshot encode+write latency (µs)")
	return s, nil
}

const (
	objectsDir = "objects"
	refsDir    = "refs"
	lockFile   = "lock"
	snapExt    = ".snap"
)

// objectPath returns the artifact path for a hash.
func (s *Store) objectPath(hash string) string {
	return filepath.Join(s.dir, objectsDir, hash+snapExt)
}

// lock acquires the store's writer lock, retrying until LockTimeout.
// The lock file is created O_EXCL and holds the owner's pid for
// debugging; unlock removes it.
func (s *Store) lock() (unlock func(), err error) {
	path := filepath.Join(s.dir, lockFile)
	timeout := s.LockTimeout
	if timeout <= 0 {
		timeout = DefaultLockTimeout
	}
	deadline := time.Now().Add(timeout)
	for {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			return func() { os.Remove(path) }, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("snap: acquiring store lock: %w", err)
		}
		if time.Now().After(deadline) {
			holder, _ := os.ReadFile(path)
			return nil, fmt.Errorf("%w (holder pid %s; remove %s if stale)",
				ErrLocked, strings.TrimSpace(string(holder)), path)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Save encodes the snapshot and files it under key's address, returning
// the hash. The state is encoded before the lock is taken (encoding can
// be large; only the filesystem mutation needs serialising), and the
// artifact lands via temp-file + rename, so readers never observe a
// partial file.
func (s *Store) Save(key Key, matcherName string, snap Snapshotter) (string, error) {
	start := time.Now()
	hash := key.Hash()
	var buf bytes.Buffer
	meta := Meta{
		Matcher:     matcherName,
		Config:      key.Config,
		Key:         hash,
		CreatedUnix: time.Now().Unix(),
	}
	if err := Write(&buf, meta, snap); err != nil {
		return "", err
	}
	unlock, err := s.lock()
	if err != nil {
		return "", err
	}
	defer unlock()
	final := s.objectPath(hash)
	if _, err := os.Stat(final); err == nil {
		// Content-addressed: an existing artifact for this key is this
		// artifact. Keep it (it may be referenced) and report success.
		s.saveUS.ObserveSince(start)
		return hash, nil
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, objectsDir), "tmp-*")
	if err != nil {
		return "", fmt.Errorf("snap: saving snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("snap: saving snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("snap: saving snapshot: %w", err)
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("snap: saving snapshot: %w", err)
	}
	s.saves.Inc()
	s.saveUS.ObserveSince(start)
	return hash, nil
}

// Load restores the snapshot stored under key into snap. A missing
// artifact returns ErrNotFound (and counts as a store miss); any decode
// failure surfaces as the codec's typed error.
func (s *Store) Load(key Key, snap Snapshotter) (Meta, error) {
	start := time.Now()
	hash := key.Hash()
	f, err := os.Open(s.objectPath(hash))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Inc()
			return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, hash)
		}
		return Meta{}, fmt.Errorf("snap: loading snapshot: %w", err)
	}
	defer f.Close()
	meta, err := Read(f, snap)
	if err != nil {
		return Meta{}, fmt.Errorf("snap: loading %s: %w", hash, err)
	}
	s.hits.Inc()
	s.loadUS.ObserveSince(start)
	return meta, nil
}

// Meta reads the identity of the artifact with the given hash without
// restoring state.
func (s *Store) Meta(hash string) (Meta, error) {
	f, err := os.Open(s.objectPath(hash))
	if err != nil {
		if os.IsNotExist(err) {
			return Meta{}, fmt.Errorf("%w: %s", ErrNotFound, hash)
		}
		return Meta{}, err
	}
	defer f.Close()
	return ReadMeta(f)
}

// SetRef points the named ref at an artifact hash (via temp + rename, so
// a ref file is never half-written).
func (s *Store) SetRef(name, hash string) error {
	if err := validRefName(name); err != nil {
		return err
	}
	unlock, err := s.lock()
	if err != nil {
		return err
	}
	defer unlock()
	tmp, err := os.CreateTemp(filepath.Join(s.dir, refsDir), "tmp-*")
	if err != nil {
		return fmt.Errorf("snap: writing ref: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := fmt.Fprintln(tmp, hash); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("snap: writing ref: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: writing ref: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, refsDir, name)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("snap: writing ref: %w", err)
	}
	return nil
}

// Ref resolves a ref name to its artifact hash.
func (s *Store) Ref(name string) (string, error) {
	if err := validRefName(name); err != nil {
		return "", err
	}
	b, err := os.ReadFile(filepath.Join(s.dir, refsDir, name))
	if err != nil {
		if os.IsNotExist(err) {
			return "", fmt.Errorf("%w: ref %q", ErrNotFound, name)
		}
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// Refs returns every ref name → hash, sorted by name.
func (s *Store) Refs() ([]RefInfo, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, refsDir))
	if err != nil {
		return nil, err
	}
	var out []RefInfo
	for _, ent := range entries {
		if ent.IsDir() || strings.HasPrefix(ent.Name(), "tmp-") {
			continue
		}
		hash, err := s.Ref(ent.Name())
		if err != nil {
			return nil, err
		}
		out = append(out, RefInfo{Name: ent.Name(), Hash: hash})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// RefInfo is one named pointer into the object store.
type RefInfo struct {
	Name string
	Hash string
}

// ArtifactInfo describes one stored artifact.
type ArtifactInfo struct {
	Hash  string
	Bytes int64
	Meta  Meta
	// MetaErr records a failure reading the artifact's meta (corrupt
	// artifacts still list, so GC and verify can deal with them).
	MetaErr error
}

// List returns every artifact, sorted by hash.
func (s *Store) List() ([]ArtifactInfo, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, objectsDir))
	if err != nil {
		return nil, err
	}
	var out []ArtifactInfo
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		hash := strings.TrimSuffix(name, snapExt)
		info := ArtifactInfo{Hash: hash}
		if fi, err := ent.Info(); err == nil {
			info.Bytes = fi.Size()
		}
		info.Meta, info.MetaErr = s.Meta(hash)
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out, nil
}

// VerifyAll checks every artifact's framing and checksums, returning one
// entry per artifact with a non-nil Err for failures.
func (s *Store) VerifyAll() ([]VerifyResult, error) {
	infos, err := s.List()
	if err != nil {
		return nil, err
	}
	out := make([]VerifyResult, 0, len(infos))
	for _, info := range infos {
		vr := VerifyResult{Hash: info.Hash, Bytes: info.Bytes}
		f, err := os.Open(s.objectPath(info.Hash))
		if err != nil {
			vr.Err = err
		} else {
			vr.Meta, vr.Err = Verify(f)
			f.Close()
		}
		out = append(out, vr)
	}
	return out, nil
}

// VerifyResult is the outcome of verifying one artifact.
type VerifyResult struct {
	Hash  string
	Bytes int64
	Meta  Meta
	Err   error
}

// GC removes artifacts no ref points at, returning the removed hashes.
// With dryRun it only reports what would be removed. Stray temp files
// from crashed writers are swept as well.
func (s *Store) GC(dryRun bool) ([]string, error) {
	unlock, err := s.lock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	refs, err := s.Refs()
	if err != nil {
		return nil, err
	}
	referenced := make(map[string]bool, len(refs))
	for _, r := range refs {
		referenced[r.Hash] = true
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, objectsDir))
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() {
			continue
		}
		if strings.HasPrefix(name, "tmp-") {
			if !dryRun {
				os.Remove(filepath.Join(s.dir, objectsDir, name))
			}
			continue
		}
		if !strings.HasSuffix(name, snapExt) {
			continue
		}
		hash := strings.TrimSuffix(name, snapExt)
		if referenced[hash] {
			continue
		}
		if !dryRun {
			if err := os.Remove(filepath.Join(s.dir, objectsDir, name)); err != nil {
				return removed, err
			}
			s.gcRemoved.Inc()
		}
		removed = append(removed, hash)
	}
	sort.Strings(removed)
	return removed, nil
}

// validRefName rejects ref names that would escape the refs directory.
func validRefName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("snap: invalid ref name %q", name)
	}
	return nil
}
