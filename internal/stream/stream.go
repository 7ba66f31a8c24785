// Package stream implements incremental entity matching for continuously
// arriving records — the operating mode of the paper's data-lake ingestion
// use case (§2.1), where "hundreds of such pipelines run in production"
// and each new record must be checked against everything already ingested
// without re-blocking the whole corpus.
//
// The Ingestor files every record in a MinHash/LSH index
// (internal/blocking/lsh). Each arriving record is fingerprinted once,
// probes the index with those fingerprints, merges into the entity of its
// best candidate when that candidate's verified token-set Jaccard reaches
// the match threshold, and is then filed under the same fingerprints.
package stream

import (
	"fmt"
	"sort"

	"repro/internal/blocking/lsh"
	"repro/internal/record"
)

// Config tunes the ingestor.
type Config struct {
	// MatchThreshold is the verified Jaccard at or above which an arriving
	// record merges into its best candidate's entity.
	MatchThreshold float64
	// LSH configures the candidate index (zero fields take lsh defaults);
	// its TopK bounds the candidates considered per arrival.
	LSH lsh.Config
}

// DefaultConfig returns ingestion defaults tuned for product-style feeds.
func DefaultConfig() Config {
	return Config{MatchThreshold: 0.5}
}

// Entity is one resolved entity in the ingestor's state.
type Entity struct {
	// ID is the entity identifier (the first member's record ID).
	ID string
	// Records holds the member records in arrival order.
	Records []record.Record
}

// Arrival reports what happened to one ingested record.
type Arrival struct {
	// RecordID is the ingested record.
	RecordID string
	// EntityID is the entity the record now belongs to.
	EntityID string
	// MergedInto reports whether the record joined an existing entity
	// (false = it founded a new one).
	MergedInto bool
	// Score is the best candidate's verified Jaccard (0 without one).
	Score float64
	// CandidatesScored is how many candidates the probe verified and kept.
	CandidatesScored int
}

// Ingestor is the incremental matcher state. Not safe for concurrent use;
// wrap with a mutex for multi-goroutine feeds.
type Ingestor struct {
	cfg    Config
	ix     *lsh.Index
	prober *lsh.Prober

	entityOf []int // record index -> entity index
	entities []*Entity
	arrivals int

	ids   []uint64        // the arriving record's token fingerprints
	cands []lsh.Candidate // reused probe output
}

// NewIngestor returns an empty ingestor over a fresh LSH index.
func NewIngestor(cfg Config) *Ingestor {
	if cfg.MatchThreshold <= 0 {
		cfg.MatchThreshold = DefaultConfig().MatchThreshold
	}
	ix := lsh.NewIndex(cfg.LSH)
	return &Ingestor{cfg: cfg, ix: ix, prober: ix.NewProber()}
}

// Index exposes the candidate index (stats, direct probes).
func (g *Ingestor) Index() *lsh.Index { return g.ix }

// Ingest processes one arriving record: probe, merge-or-create, then file
// the record in the index.
func (g *Ingestor) Ingest(r record.Record) Arrival {
	g.arrivals++
	if r.ID == "" {
		r.ID = fmt.Sprintf("stream-%d", g.arrivals)
	}

	// The record is probed before it is filed, so it is never its own
	// candidate. Candidates come sorted by (-Jaccard, index): the first
	// is the best, and the earliest-filed record wins a tie.
	g.ids = lsh.RecordHashes(r, g.ids[:0])
	g.cands = g.prober.ProbeHashes(g.ids, g.cands[:0])
	arrival := Arrival{RecordID: r.ID, CandidatesScored: len(g.cands)}
	best := -1
	if len(g.cands) > 0 {
		c := g.cands[0]
		arrival.Score = c.Jaccard
		if c.Jaccard >= g.cfg.MatchThreshold {
			best = g.entityOf[c.Index]
		}
	}
	g.ix.AddHashes(g.ids)

	if best >= 0 {
		g.entities[best].Records = append(g.entities[best].Records, r)
		g.entityOf = append(g.entityOf, best)
		arrival.MergedInto = true
		arrival.EntityID = g.entities[best].ID
		return arrival
	}
	e := &Entity{ID: r.ID, Records: []record.Record{r}}
	g.entities = append(g.entities, e)
	g.entityOf = append(g.entityOf, len(g.entities)-1)
	arrival.EntityID = e.ID
	return arrival
}

// Entities returns the current entity state (largest first).
func (g *Ingestor) Entities() []*Entity {
	out := append([]*Entity(nil), g.entities...)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Records) != len(out[j].Records) {
			return len(out[i].Records) > len(out[j].Records)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Stats summarises the ingestor state.
type Stats struct {
	Records   int
	Entities  int
	Merged    int // records that joined an existing entity
	IndexKeys int // occupied LSH buckets across all bands
}

// Stats returns the current counters.
func (g *Ingestor) Stats() Stats {
	n := g.ix.Len()
	return Stats{
		Records:   n,
		Entities:  len(g.entities),
		Merged:    n - len(g.entities),
		IndexKeys: g.ix.Stats().Buckets,
	}
}
