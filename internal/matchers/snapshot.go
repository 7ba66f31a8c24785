package matchers

import (
	"fmt"

	"repro/internal/lm"
	"repro/internal/mlcore"
	"repro/internal/moe"
	"repro/internal/record"
	"repro/internal/snap"
	"repro/internal/stats"
)

// This file implements snap.Snapshotter for every registry matcher
// (ByName), the only matchers a snapshot store is asked to hold.
// The contract is strict: a matcher restored from its snapshot predicts
// bit-identically to the freshly trained instance (pinned by the
// round-trip tests in internal/snap). Each implementation therefore
// captures exactly the state Train produces and Predict consumes —
// trained weights, IDF tables, selected demonstrations, and the RNG
// stream position for matchers whose Predict derives per-call streams
// via Split (Split reads the state without advancing it, so the stored
// state fully determines future draws).
//
// Every payload starts with a versioned state tag ("ditto/v1", …) that
// RestoreState verifies, so a snapshot can never restore into the wrong
// matcher type or layout. Matchers whose behaviour depends on a model
// profile also record the profile name and reject mismatches: restoring
// a GPT-4 snapshot into a GPT-3.5 matcher is a configuration error, not
// a best-effort merge.

// ConfigOf returns a matcher's configuration fingerprint — the Config
// component of a store key. It covers every knob that changes trained
// state, so a tweaked configuration can never alias the stock one.
func ConfigOf(m Matcher) string {
	switch m := m.(type) {
	case *StringSim:
		return fmt.Sprintf("stringsim:t=%g", m.Threshold)
	case *ZeroER:
		return "zeroer:default"
	case *Ditto:
		c := m.profile.Capacity
		return fmt.Sprintf("ditto:cap=%d,aug=%t,sum=%d,hw=%d,ep=%d,lr=%g,pre=%g",
			m.TrainCap, m.Augment, m.SummarizeAt, c.HashWidth, c.Epochs, c.LearnRate, c.Pretraining)
	case *AnyMatch:
		return fmt.Sprintf("anymatch:%s:per=%d,boost=%t,attr=%t,nobal=%t",
			m.profile.Name, m.PerClass, m.UseBoostSelection, m.UseAttrAugment, m.DisableBalancing)
	case *Unicorn:
		return fmt.Sprintf("unicorn:cap=%d,aux=%d", m.TrainCap, m.AuxCap)
	case *Jellyfish:
		return "jellyfish"
	case *MatchGPT:
		return fmt.Sprintf("matchgpt:%s:strat=%d,demos=%d", m.profile.Name, int(m.Strategy), m.NumDemos)
	default:
		return m.Name()
	}
}

// --- shared record/demo codecs ---

func encodeRecord(e *snap.Enc, r record.Record) {
	e.Str(r.ID)
	e.Strs(r.Values)
}

func decodeRecord(d *snap.Dec) record.Record {
	return record.Record{ID: d.Str(), Values: d.Strs()}
}

func encodeLabeledPair(e *snap.Enc, p record.LabeledPair) {
	encodeRecord(e, p.Left)
	encodeRecord(e, p.Right)
	e.Bool(p.Match)
}

func decodeLabeledPair(d *snap.Dec) record.LabeledPair {
	var p record.LabeledPair
	p.Left = decodeRecord(d)
	p.Right = decodeRecord(d)
	p.Match = d.Bool()
	return p
}

func encodeDemos(e *snap.Enc, demos []lm.Demo) {
	e.Uvarint(uint64(len(demos)))
	for _, dm := range demos {
		encodeLabeledPair(e, dm.Pair)
		e.Str(dm.Dataset)
	}
}

func decodeDemos(d *snap.Dec) []lm.Demo {
	n := int(d.Uvarint())
	if d.Err() != nil || n == 0 {
		return nil
	}
	demos := make([]lm.Demo, 0, n)
	for i := 0; i < n; i++ {
		var dm lm.Demo
		dm.Pair = decodeLabeledPair(d)
		dm.Dataset = d.Str()
		if d.Err() != nil {
			return nil
		}
		demos = append(demos, dm)
	}
	return demos
}

// encodeRNG stores an RNG stream position (nil-safe: untrained matchers
// have no stream yet).
func encodeRNG(e *snap.Enc, rng *stats.RNG) {
	e.Bool(rng != nil)
	if rng != nil {
		e.U64(rng.State())
	}
}

func decodeRNG(d *snap.Dec) *stats.RNG {
	if !d.Bool() {
		return nil
	}
	return stats.FromState(d.U64())
}

// checkProfile verifies a snapshot's recorded profile name against the
// restore target's.
func checkProfile(got, want string) error {
	if got != want {
		return fmt.Errorf("%w: snapshot for model %q, matcher configured for %q", snap.ErrMismatch, got, want)
	}
	return nil
}

// --- StringSim ---

// SnapshotState implements snap.Snapshotter.
func (m *StringSim) SnapshotState(e *snap.Enc) error {
	e.Str("stringsim/v1")
	e.F64(m.Threshold)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *StringSim) RestoreState(d *snap.Dec) error {
	d.Tag("stringsim/v1")
	m.Threshold = d.F64()
	return d.Err()
}

// --- ZeroER ---

// SnapshotState implements snap.Snapshotter. ZeroER's trained state is
// just the RNG stream seeding mixture fitting.
func (m *ZeroER) SnapshotState(e *snap.Enc) error {
	e.Str("zeroer/v1")
	encodeRNG(e, m.rng)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *ZeroER) RestoreState(d *snap.Dec) error {
	d.Tag("zeroer/v1")
	m.rng = decodeRNG(d)
	return d.Err()
}

// --- Jellyfish ---

// SnapshotState implements snap.Snapshotter.
func (m *Jellyfish) SnapshotState(e *snap.Enc) error {
	e.Str("jellyfish/v1")
	encodeRNG(e, m.rng)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *Jellyfish) RestoreState(d *snap.Dec) error {
	d.Tag("jellyfish/v1")
	m.rng = decodeRNG(d)
	return d.Err()
}

// --- MatchGPT ---

// SnapshotState implements snap.Snapshotter: strategy, selected
// demonstrations and the RNG stream behind per-batch prompt models.
func (m *MatchGPT) SnapshotState(e *snap.Enc) error {
	e.Str("matchgpt/v1")
	e.Str(m.profile.Name)
	e.Int(int(m.Strategy))
	e.Int(m.NumDemos)
	encodeRNG(e, m.rng)
	encodeDemos(e, m.demos)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *MatchGPT) RestoreState(d *snap.Dec) error {
	d.Tag("matchgpt/v1")
	name := d.Str()
	strategy := lm.DemoStrategy(d.Int())
	numDemos := d.Int()
	rng := decodeRNG(d)
	demos := decodeDemos(d)
	if err := d.Err(); err != nil {
		return err
	}
	if err := checkProfile(name, m.profile.Name); err != nil {
		return err
	}
	m.Strategy, m.NumDemos, m.rng, m.demos = strategy, numDemos, rng, demos
	return nil
}

// --- Ditto ---

// SnapshotState implements snap.Snapshotter: configuration, the
// fine-tuned encoder (capacity + IDF table) and the linear head.
func (m *Ditto) SnapshotState(e *snap.Enc) error {
	if m.enc == nil || m.head == nil {
		return fmt.Errorf("snap: Ditto not trained")
	}
	e.Str("ditto/v1")
	e.Int(m.TrainCap)
	e.Bool(m.Augment)
	e.Int(m.SummarizeAt)
	lm.EncodeEncoder(e, m.enc)
	mlcore.EncodeLogReg(e, m.head)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *Ditto) RestoreState(d *snap.Dec) error {
	d.Tag("ditto/v1")
	trainCap := d.Int()
	augment := d.Bool()
	summarizeAt := d.Int()
	enc, err := lm.DecodeEncoder(d)
	if err != nil {
		return err
	}
	head, err := mlcore.DecodeLogReg(d)
	if err != nil {
		return err
	}
	m.TrainCap, m.Augment, m.SummarizeAt = trainCap, augment, summarizeAt
	m.enc, m.head = enc, head
	m.profile.Capacity = enc.Capacity()
	return nil
}

// --- AnyMatch ---

// SnapshotState implements snap.Snapshotter: the data-centric pipeline
// flags, the encoder and the MLP head.
func (m *AnyMatch) SnapshotState(e *snap.Enc) error {
	if m.enc == nil || m.head == nil {
		return fmt.Errorf("snap: AnyMatch not trained")
	}
	e.Str("anymatch/v1")
	e.Str(m.profile.Name)
	e.Int(m.PerClass)
	e.Bool(m.UseBoostSelection)
	e.Bool(m.UseAttrAugment)
	e.Bool(m.DisableBalancing)
	lm.EncodeEncoder(e, m.enc)
	mlcore.EncodeMLP(e, m.head)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *AnyMatch) RestoreState(d *snap.Dec) error {
	d.Tag("anymatch/v1")
	name := d.Str()
	perClass := d.Int()
	boostSel := d.Bool()
	attrAug := d.Bool()
	noBal := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if err := checkProfile(name, m.profile.Name); err != nil {
		return err
	}
	enc, err := lm.DecodeEncoder(d)
	if err != nil {
		return err
	}
	head, err := mlcore.DecodeMLP(d)
	if err != nil {
		return err
	}
	m.PerClass, m.UseBoostSelection, m.UseAttrAugment, m.DisableBalancing = perClass, boostSel, attrAug, noBal
	m.enc, m.head = enc, head
	return nil
}

// --- Unicorn ---

// SnapshotState implements snap.Snapshotter: the encoder and the
// mixture-of-experts model.
func (m *Unicorn) SnapshotState(e *snap.Enc) error {
	if m.enc == nil || m.model == nil {
		return fmt.Errorf("snap: Unicorn not trained")
	}
	e.Str("unicorn/v1")
	e.Int(m.TrainCap)
	e.Int(m.AuxCap)
	lm.EncodeEncoder(e, m.enc)
	moe.EncodeModel(e, m.model)
	return nil
}

// RestoreState implements snap.Snapshotter.
func (m *Unicorn) RestoreState(d *snap.Dec) error {
	d.Tag("unicorn/v1")
	trainCap := d.Int()
	auxCap := d.Int()
	enc, err := lm.DecodeEncoder(d)
	if err != nil {
		return err
	}
	model, err := moe.DecodeModel(d)
	if err != nil {
		return err
	}
	m.TrainCap, m.AuxCap = trainCap, auxCap
	m.enc, m.model = enc, model
	return nil
}
