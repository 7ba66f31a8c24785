package lm

import (
	"fmt"

	"repro/internal/mlcore"
	"repro/internal/snap"
	"repro/internal/textsim"
)

// maxSnapshotHashWidth bounds the feature-space width a snapshot may
// declare; the largest study capacity is 1<<17, so anything near the
// limit is corruption, not configuration.
const maxSnapshotHashWidth = 1 << 24

// EncodeEncoder appends a fine-tuning encoder's state to e: the capacity
// parameters plus the IDF document-frequency table (pretrained base and
// observed fine-tuning corpus combined). The hasher is derived from the
// hash width, so it needs no bytes of its own.
func EncodeEncoder(e *snap.Enc, enc *Encoder) {
	e.Str("encoder/v1")
	c := enc.capacity
	e.Int(c.HashWidth)
	e.Bool(c.CharGrams)
	e.Int(c.Hidden)
	e.Int(c.Epochs)
	e.F64(c.LearnRate)
	e.F64(c.Pretraining)
	tokens, counts := enc.idf.ExportDocFreq()
	e.Int(enc.idf.DocCount())
	e.Strs(tokens)
	e.Ints(counts)
}

// DecodeEncoder reads an encoder written by EncodeEncoder. The returned
// encoder featurises bit-identically to the snapshotted one: encoding is
// a pure function of capacity and the IDF table. It serves, so it
// resolves text through the process-wide cache, as a trained encoder does
// after DropCorpusCache.
func DecodeEncoder(d *snap.Dec) (*Encoder, error) {
	d.Tag("encoder/v1")
	c := EncoderCapacity{
		HashWidth:   d.Int(),
		CharGrams:   d.Bool(),
		Hidden:      d.Int(),
		Epochs:      d.Int(),
		LearnRate:   d.F64(),
		Pretraining: d.F64(),
	}
	docCount := d.Int()
	tokens := d.Strs()
	counts := d.Ints()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if c.HashWidth <= 0 || c.HashWidth > maxSnapshotHashWidth {
		return nil, fmt.Errorf("%w: encoder hash width %d", snap.ErrCorrupt, c.HashWidth)
	}
	idf, err := textsim.NewWeighterFromCounts(docCount, tokens, counts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return &Encoder{
		capacity: c,
		hasher:   mlcore.NewHasher(c.HashWidth),
		idf:      idf,
		text:     sharedText,
	}, nil
}
