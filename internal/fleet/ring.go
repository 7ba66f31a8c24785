// Package fleet scales the serving layer (internal/serve) horizontally:
// a front router consistent-hash-partitions the canonical pair-key
// space across N replica emserve processes, fans each request batch out
// to the owning replicas, and reassembles the responses in order.
//
// The load-bearing properties:
//
//   - Deterministic placement. The ring hashes the byte-exact cache key
//     every replica builds for a pair (serve.AppendPairKey and
//     serve.AppendViewKey — the same bytes the binary wire path probes its
//     prediction cache with), so a pair always lands on the replica whose
//     cache can answer it, and the key→replica assignment is a pure
//     function of the membership list and the key bytes: identical across
//     runs, processes and GOMAXPROCS.
//
//   - A byte relay. The front never materialises a pair: it hashes each
//     pair's key off the request frame's views and copies the pair's
//     encoded bytes into its owner's pooled sub-frame (relay.go).
//
//   - Bounded movement. Virtual nodes spread each replica over the ring;
//     when a replica joins or leaves, only the keys in its arcs move
//     (~K/N of them), everything else stays put — a replica death warms
//     the successors' caches instead of flushing the fleet's.
//
//   - Graceful degradation. Replica health is probed (/healthz) and
//     circuit-broken (internal/route.Breaker); ejected replicas are
//     walked over in ring order, 429/503 shed signals temporarily
//     down-weight a replica, and requests that straggle past the rolling
//     p99 estimate are hedged to the next replica on the ring.
//
//   - Safe upgrades. A canary replica boots from a new snapshot
//     (internal/snap.PickCanary), a deterministic sample of live traffic
//     is mirrored to it, and cutover requires bit-identical predictions
//     against the incumbent on that sample before the old replica is
//     drained and retired.
package fleet

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"

	"repro/internal/textsim"
)

// DefaultVNodes is the virtual-node count per replica: enough to keep
// the largest arc within a few percent of fair share at fleet sizes the
// repo targets (3–64 replicas), cheap enough that ring rebuilds stay
// microsecond-scale.
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the 64-bit ring owned by
// a member.
type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// Ring is an immutable consistent-hash ring over named members. Build
// with NewRing, derive membership changes with With/Without — immutable
// rebuilds keep lookups lock-free (the front router swaps rings through
// an atomic pointer) and make placement trivially deterministic.
type Ring struct {
	vnodes  int
	members []string // sorted
	points  []ringPoint
}

// NewRing builds a ring with vnodes virtual nodes per member (<=0 means
// DefaultVNodes). Duplicate member names are rejected: two replicas with
// one identity would silently share arcs.
func NewRing(vnodes int, members ...string) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("fleet: duplicate ring member %q", sorted[i])
		}
	}
	r := &Ring{vnodes: vnodes, members: sorted}
	r.points = make([]ringPoint, 0, vnodes*len(sorted))
	var buf []byte
	for mi, name := range sorted {
		for v := 0; v < vnodes; v++ {
			buf = append(buf[:0], name...)
			buf = append(buf, '#')
			buf = strconv.AppendInt(buf, int64(v), 10)
			// Finalize the FNV fold with the splitmix64 mixer: FNV-1a
			// alone clusters suffix-sharing inputs ("r1#1", "r1#2") in
			// the low bits, and vnode points need full-ring dispersion.
			r.points = append(r.points, ringPoint{hash: mix64(textsim.TokenHashBytes(buf)), member: int32(mi)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// A full-width hash collision between two members' vnodes is
		// astronomically unlikely but must still order deterministically.
		return a.member < b.member
	})
	return r, nil
}

// mix64 is the splitmix64 finalizer — the same avalanche the routing
// layer uses for its deterministic jitter draws.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// castagnoli is the CRC-32C table; the standard library computes CRC-32C
// with the CPU's CRC32 instruction where there is one.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// KeyHash maps a canonical pair key (serve.AppendPairKey bytes) onto the
// ring's 64-bit keyspace: CRC-32C, which reads the key a word at a time,
// spread over 64 bits by the splitmix64 finalizer. Placement depends on
// it, so it must be the same in every process and on every platform, and
// changing it moves most keys to another replica: every replica cache
// re-warms once.
func KeyHash(key []byte) uint64 { return mix64(uint64(crc32.Checksum(key, castagnoli))) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning keyHash: the first virtual node at or
// clockwise after it. Allocation-free — the front router calls it per
// pair on the hot path.
func (r *Ring) Owner(keyHash uint64) string {
	return r.members[r.ownerIndex(keyHash)]
}

// ownerIndex returns the owning member's index in Members().
func (r *Ring) ownerIndex(keyHash uint64) int32 {
	pts := r.points
	// Binary search for the first point >= keyHash, wrapping to 0.
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= keyHash })
	if i == len(pts) {
		i = 0
	}
	return pts[i].member
}

// Successors appends to dst the distinct members in ring order starting
// at keyHash's owner, and returns the filled slice: dst[0] is the owner,
// dst[1] the member whose arc follows (the hedge and failover target),
// and so on through every member. Allocation-free when cap(dst) >=
// r.Len().
func (r *Ring) Successors(keyHash uint64, dst []string) []string {
	dst = dst[:0]
	if len(r.members) == 0 {
		return dst
	}
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= keyHash })
	var seen uint64 // bitset over member indices; fleets are way below 64... but guard anyway
	var seenBig map[int32]bool
	if len(r.members) > 64 {
		seenBig = make(map[int32]bool, len(r.members))
	}
	for n := 0; n < len(pts) && len(dst) < len(r.members); n++ {
		p := pts[(i+n)%len(pts)]
		if seenBig != nil {
			if seenBig[p.member] {
				continue
			}
			seenBig[p.member] = true
		} else {
			if seen&(1<<uint(p.member)) != 0 {
				continue
			}
			seen |= 1 << uint(p.member)
		}
		dst = append(dst, r.members[p.member])
	}
	return dst
}

// With returns a new ring with member added.
func (r *Ring) With(member string) (*Ring, error) {
	return NewRing(r.vnodes, append(append([]string(nil), r.members...), member)...)
}

// Without returns a new ring with member removed. Removing an absent
// member is a no-op copy.
func (r *Ring) Without(member string) (*Ring, error) {
	keep := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			keep = append(keep, m)
		}
	}
	return NewRing(r.vnodes, keep...)
}

// LoadCounts assigns every key hash to its owner and returns the count
// per member — the placement statistic behind the balance and rebalance
// tests.
func (r *Ring) LoadCounts(keyHashes []uint64) map[string]int {
	counts := make(map[string]int, len(r.members))
	for _, m := range r.members {
		counts[m] = 0
	}
	for _, kh := range keyHashes {
		counts[r.Owner(kh)]++
	}
	return counts
}

// Moved counts how many keys change owner between two rings — the
// bounded-movement guarantee consistent hashing exists for. Exposed for
// the rebalance tests and the emfleet -smoke report.
func Moved(a, b *Ring, keyHashes []uint64) int {
	moved := 0
	for _, kh := range keyHashes {
		if a.Owner(kh) != b.Owner(kh) {
			moved++
		}
	}
	return moved
}
