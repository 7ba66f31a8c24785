package textsim

import "sync"

// Interner maps token strings to dense uint32 IDs. IDs are assigned in
// first-observation order and never change, so two profiles built at any
// time against the same interner are directly comparable by ID.
//
// The interner is safe for concurrent use and read-mostly after warm-up:
// lookups take a shared lock, only first sightings take the write lock.
//
// The package maintains one process-wide interner shared by every
// ProfileCache (see Shared), which is what makes profile kernels safe to
// apply across profiles from different caches: there is only one ID space.
type Interner struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]uint32)}
}

// ID returns the interned ID of s, assigning the next free ID on first
// sight.
func (in *Interner) ID(s string) uint32 {
	in.mu.RLock()
	id, ok := in.ids[s]
	in.mu.RUnlock()
	if ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id
	}
	id = uint32(len(in.strs))
	in.ids[s] = id
	in.strs = append(in.strs, s)
	return id
}

// String returns the token for an ID. It panics on unknown IDs, which can
// only be produced by using an ID from a different interner.
func (in *Interner) String(id uint32) string {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.strs[id]
}

// sharedInterner is the process-wide token ID space used by all profile
// caches.
var sharedInterner = NewInterner()

// Intern interns a token in the shared ID space and returns its ID; used
// by callers that precompute ID sets (e.g. contrast families) to test
// membership against Profile.SortedIDs.
func Intern(tok string) uint32 { return sharedInterner.ID(tok) }
