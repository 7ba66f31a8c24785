package snap

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeState is a minimal Snapshotter for store tests.
type fakeState struct {
	Tag  string
	Vals []float64
}

func (f *fakeState) SnapshotState(e *Enc) error {
	e.Str("fake/v1")
	e.Str(f.Tag)
	e.F64s(f.Vals)
	return nil
}

func (f *fakeState) RestoreState(d *Dec) error {
	d.Tag("fake/v1")
	f.Tag = d.Str()
	f.Vals = d.F64s()
	return d.Err()
}

func testKey(n int) Key {
	return Key{
		Matcher: fmt.Sprintf("fake-%d", n),
		Config:  "fake:cfg",
		Data:    []string{"fp-a", "fp-b"},
		Seed:    uint64(n),
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	want := &fakeState{Tag: "hello", Vals: []float64{1.5, -2.5}}
	key := testKey(1)
	hash, err := st.Save(key, "Fake", want)
	if err != nil {
		t.Fatal(err)
	}
	if hash != key.Hash() {
		t.Fatalf("Save hash %s != key hash %s", hash, key.Hash())
	}
	got := &fakeState{}
	meta, err := st.Load(key, got)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Matcher != "Fake" || meta.Config != "fake:cfg" || meta.Key != hash {
		t.Fatalf("meta = %+v", meta)
	}
	if got.Tag != want.Tag || len(got.Vals) != 2 || got.Vals[1] != -2.5 {
		t.Fatalf("restored = %+v", got)
	}
	// Saving the same key again is a no-op success (content-addressed).
	if _, err := st.Save(key, "Fake", want); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMissAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(testKey(9), &fakeState{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if _, err := st.Save(testKey(1), "Fake", &fakeState{Tag: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(testKey(1), &fakeState{}); err != nil {
		t.Fatal(err)
	}
	counters := map[string]float64{}
	for _, m := range reg.Snapshot() {
		if m.Value != nil {
			counters[m.Name] = *m.Value
		}
	}
	if counters["snap_store_hits_total"] != 1 || counters["snap_store_misses_total"] != 1 || counters["snap_store_saves_total"] != 1 {
		t.Fatalf("counters = %v", counters)
	}
}

func TestStoreKeyHashSensitivity(t *testing.T) {
	base := testKey(1)
	variants := []Key{
		{Matcher: "other", Config: base.Config, Data: base.Data, Seed: base.Seed},
		{Matcher: base.Matcher, Config: "other", Data: base.Data, Seed: base.Seed},
		{Matcher: base.Matcher, Config: base.Config, Data: []string{"fp-a"}, Seed: base.Seed},
		{Matcher: base.Matcher, Config: base.Config, Data: base.Data, Seed: 2},
	}
	seen := map[string]bool{base.Hash(): true}
	for i, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Fatalf("variant %d collides", i)
		}
		seen[h] = true
	}
	if base.Hash() != testKey(1).Hash() {
		t.Fatal("key hash not deterministic")
	}
}

func TestStoreRefsAndGC(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keep, drop := testKey(1), testKey(2)
	keepHash, err := st.Save(keep, "Keep", &fakeState{Tag: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	dropHash, err := st.Save(drop, "Drop", &fakeState{Tag: "drop"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetRef("current", keepHash); err != nil {
		t.Fatal(err)
	}
	if h, err := st.Ref("current"); err != nil || h != keepHash {
		t.Fatalf("Ref = %q %v", h, err)
	}
	if err := st.SetRef("../evil", keepHash); err == nil {
		t.Fatal("path-escaping ref name accepted")
	}

	has := func(k Key) bool { _, err := os.Stat(st.objectPath(k.Hash())); return err == nil }
	// Dry run reports but removes nothing.
	removed, err := st.GC(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != dropHash {
		t.Fatalf("dry-run GC = %v", removed)
	}
	if !has(drop) {
		t.Fatal("dry-run GC removed an artifact")
	}

	removed, err = st.GC(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != dropHash {
		t.Fatalf("GC = %v", removed)
	}
	if has(drop) || !has(keep) {
		t.Fatal("GC removed the wrong artifact")
	}
	// The referenced artifact still loads.
	if _, err := st.LoadHash(keepHash, &fakeState{}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreVerifyAllFlagsCorruption(t *testing.T) {
	st, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := st.Save(testKey(1), "Fake", &fakeState{Tag: "ok", Vals: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	results, err := st.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("verify clean store = %+v", results)
	}
	// Flip one byte mid-file; verify must flag it.
	path := filepath.Join(st.dir, "objects", hash+".snap")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	results, err = st.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("corrupt artifact passed verify: %+v", results)
	}
}

func TestStoreConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := Open(dir, nil) // separate Store per goroutine = separate writer
			if err != nil {
				errs[i] = err
				return
			}
			key := testKey(i % 3) // deliberate key collisions across writers
			if _, err := st.Save(key, "Fake", &fakeState{Tag: "t", Vals: []float64{float64(i % 3)}}); err != nil {
				errs[i] = err
				return
			}
			errs[i] = st.SetRef(fmt.Sprintf("w%d", i), key.Hash())
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("got %d artifacts, want 3", len(infos))
	}
	results, err := st.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("artifact %s corrupt after concurrent writes: %v", r.Hash, r.Err)
		}
	}
	// No writer left the lock or temp files behind.
	if _, err := os.Stat(filepath.Join(dir, "lock")); !os.IsNotExist(err) {
		t.Fatal("lock file left behind")
	}
	entries, _ := os.ReadDir(filepath.Join(dir, "objects"))
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "tmp-") {
			t.Fatalf("stray temp file %s", ent.Name())
		}
	}
}

func TestStoreLockTimeout(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.LockTimeout = 30 * time.Millisecond
	// Simulate a stale holder.
	if err := os.WriteFile(filepath.Join(dir, "lock"), []byte("12345\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.Save(testKey(1), "Fake", &fakeState{})
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("got %v, want ErrLocked", err)
	}
	if !strings.Contains(err.Error(), "12345") {
		t.Fatalf("error %q does not name the holder pid", err)
	}
}
