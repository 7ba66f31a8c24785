// Package cluster turns pairwise match decisions into entity clusters —
// the step after matching in a deduplication pipeline. Matchers emit
// independent pair decisions; a consistent view of the data needs
// transitive closure (if a≡b and b≡c then a, b, c are one entity), which
// union-find provides, plus hygiene for the conflicts that closure
// surfaces (giant clusters glued together by a few false positives).
package cluster

import (
	"sort"

	"repro/internal/record"
)

// Edge is one positive match decision with its confidence.
type Edge struct {
	A, B string // record IDs
	// Score is the matcher's confidence in [0,1]; pairwise decisions
	// without scores can use 1.
	Score float64
}

// Config controls cluster construction.
type Config struct {
	// MinScore drops edges below this confidence before closure.
	MinScore float64
	// MaxClusterSize, when positive, re-splits clusters larger than this
	// by removing their weakest edges — the standard guard against
	// false-positive chains gluing unrelated entities together.
	MaxClusterSize int
}

// Cluster is one resolved entity: the IDs of all records referring to it.
type Cluster struct {
	// Members holds the record IDs, sorted.
	Members []string
}

// Size returns the member count.
func (c Cluster) Size() int { return len(c.Members) }

// unionFind is a weighted quick-union with path compression.
type unionFind struct {
	parent map[string]string
	size   map[string]int
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[string]string), size: make(map[string]int)}
}

func (u *unionFind) add(x string) {
	if _, ok := u.parent[x]; !ok {
		u.parent[x] = x
		u.size[x] = 1
	}
}

func (u *unionFind) find(x string) string {
	root := x
	for u.parent[root] != root {
		root = u.parent[root]
	}
	// Path compression.
	for u.parent[x] != root {
		u.parent[x], x = root, u.parent[x]
	}
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
}

// Resolve builds entity clusters from match edges. Records carrying no
// accepted edge form singleton clusters when their IDs are supplied via
// allIDs (pass nil to cluster only matched records).
func Resolve(edges []Edge, allIDs []string, cfg Config) []Cluster {
	u := newUnionFind()
	for _, id := range allIDs {
		u.add(id)
	}
	kept := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.Score < cfg.MinScore {
			continue
		}
		u.add(e.A)
		u.add(e.B)
		kept = append(kept, e)
		u.union(e.A, e.B)
	}

	groups := make(map[string][]string)
	for id := range u.parent {
		root := u.find(id)
		groups[root] = append(groups[root], id)
	}

	var clusters []Cluster
	for _, members := range groups {
		sort.Strings(members)
		if cfg.MaxClusterSize > 0 && len(members) > cfg.MaxClusterSize {
			clusters = append(clusters, splitOversized(members, kept, cfg)...)
			continue
		}
		clusters = append(clusters, Cluster{Members: members})
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].Size() != clusters[j].Size() {
			return clusters[i].Size() > clusters[j].Size()
		}
		return clusters[i].Members[0] < clusters[j].Members[0]
	})
	return clusters
}

// splitOversized re-clusters one oversized group using only its strongest
// edges: edges are re-admitted in descending score order while no
// component exceeds the cap.
func splitOversized(members []string, edges []Edge, cfg Config) []Cluster {
	inGroup := make(map[string]bool, len(members))
	for _, m := range members {
		inGroup[m] = true
	}
	var local []Edge
	for _, e := range edges {
		if inGroup[e.A] && inGroup[e.B] {
			local = append(local, e)
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i].Score > local[j].Score })

	u := newUnionFind()
	for _, m := range members {
		u.add(m)
	}
	for _, e := range local {
		ra, rb := u.find(e.A), u.find(e.B)
		if ra == rb {
			continue
		}
		if u.size[ra]+u.size[rb] > cfg.MaxClusterSize {
			continue // admitting this edge would overshoot the cap
		}
		u.union(e.A, e.B)
	}
	groups := make(map[string][]string)
	for _, m := range members {
		root := u.find(m)
		groups[root] = append(groups[root], m)
	}
	out := make([]Cluster, 0, len(groups))
	for _, ms := range groups {
		sort.Strings(ms)
		out = append(out, Cluster{Members: ms})
	}
	return out
}

// FromPredictions builds edges from a prediction run: one edge per pair
// predicted positive.
func FromPredictions(pairs []record.Pair, preds []bool, scores []float64) []Edge {
	var edges []Edge
	for i, p := range pairs {
		if i < len(preds) && preds[i] {
			score := 1.0
			if i < len(scores) {
				score = scores[i]
			}
			edges = append(edges, Edge{A: p.Left.ID, B: p.Right.ID, Score: score})
		}
	}
	return edges
}
