package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"repro/internal/serve"
	"repro/internal/wire"
)

// Rolling canary upgrade. The flow:
//
//  1. StartCanary(target, url): a canary replica is already running at
//     url (typically warm-started from the snapshot snap.PickCanary
//     chose) and shadows the incumbent ring member named target.
//  2. While the canary is active, every sub-batch the incumbent answers
//     has a deterministic per-key sample mirrored to the canary, and
//     the canary's predictions are compared bit-for-bit against the
//     incumbent's. Mirroring is observe-only: canary answers never
//     reach clients, mirror failures never fail live requests, and the
//     mirror sub-request runs asynchronously under its own
//     mirrorTimeout — a slow or hung canary never adds latency to live
//     traffic.
//  3. PromoteCanary(): allowed only once the mirrored sample is big
//     enough and every compared prediction matched. Cutover swaps the
//     ring member's URL in place — the ring identity (and therefore the
//     key placement) does not move — and returns the old URL so the
//     caller can drain and retire the incumbent process.
//  4. AbortCanary(): drop the canary (mismatch found, or operator
//     changed their mind). The incumbent keeps serving.
//
// Bit-identity is the right bar here because replicas are deterministic
// by construction: same snapshot + same matcher ⇒ same predictions, so
// any divergence on mirrored traffic is a real behaviour change, not
// noise.

// canary is the active canary's state. Immutable identity fields plus
// atomic tallies — the mirror path touches it lock-free.
type canary struct {
	target    string // incumbent ring member being shadowed
	url       string // canary replica base URL
	permille  int    // per-key mirror sample rate
	minSample int    // pairs that must compare clean before promotion

	mirrored   atomic.Int64 // pairs mirrored and compared
	matched    atomic.Int64 // pairs whose predictions matched
	mismatched atomic.Int64 // pairs whose predictions diverged
	errors     atomic.Int64 // mirror sub-requests that failed outright
}

// CanaryReport is the canary's progress snapshot (also served in
// /stats).
type CanaryReport struct {
	Target    string `json:"target"`
	URL       string `json:"url"`
	Permille  int    `json:"permille"`
	MinSample int    `json:"min_sample"`

	Mirrored   int64 `json:"mirrored"`
	Matched    int64 `json:"matched"`
	Mismatched int64 `json:"mismatched"`
	Errors     int64 `json:"errors"`

	// Ready: the sample is complete and bit-identical — promotion is
	// allowed.
	Ready bool `json:"ready"`
}

func (c *canary) report() *CanaryReport {
	r := &CanaryReport{
		Target:     c.target,
		URL:        c.url,
		Permille:   c.permille,
		MinSample:  c.minSample,
		Mirrored:   c.mirrored.Load(),
		Matched:    c.matched.Load(),
		Mismatched: c.mismatched.Load(),
		Errors:     c.errors.Load(),
	}
	r.Ready = r.Mirrored >= int64(c.minSample) && r.Mismatched == 0 && r.Matched == r.Mirrored
	return r
}

// StartCanary arms a canary at url shadowing the ring member named
// target. Only one canary may be active at a time.
func (f *Front) StartCanary(target, url string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.Replica(target) == nil {
		return fmt.Errorf("fleet: canary target %q is not a ring member", target)
	}
	if f.canary.Load() != nil {
		return fmt.Errorf("fleet: a canary is already active")
	}
	f.canary.Store(&canary{
		target:    target,
		url:       url,
		permille:  f.cfg.MirrorPermille,
		minSample: f.cfg.CanaryMinSample,
	})
	return nil
}

// Canary returns the active canary's progress, or nil when none is
// running.
func (f *Front) Canary() *CanaryReport {
	c := f.canary.Load()
	if c == nil {
		return nil
	}
	return c.report()
}

// PromoteCanary cuts the fleet over to the canary: the target ring
// member's URL is swapped to the canary's in place, preserving the ring
// identity so no keys move, and the old URL is returned for the caller
// to drain. Refused until the canary's report is Ready — an incomplete
// or diverging sample never promotes.
func (f *Front) PromoteCanary() (oldURL string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.canary.Load()
	if c == nil {
		return "", fmt.Errorf("fleet: no canary active")
	}
	rep := f.Replica(c.target)
	if rep == nil {
		return "", fmt.Errorf("fleet: canary target %q left the ring", c.target)
	}
	r := c.report()
	if !r.Ready {
		return "", fmt.Errorf("fleet: canary not ready: mirrored=%d/%d mismatched=%d errors=%d",
			r.Mirrored, r.MinSample, r.Mismatched, r.Errors)
	}
	oldURL = rep.URL()
	rep.url.Store(c.url)
	// The new process starts with a clean bill of health: clear any
	// Closed-state failure streak the incumbent accumulated.
	rep.breaker.NoteSuccess()
	f.canary.Store(nil)
	return oldURL, nil
}

// AbortCanary drops the active canary, reporting whether one was
// running.
func (f *Front) AbortCanary() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.canary.Load() == nil {
		return false
	}
	f.canary.Store(nil)
	return true
}

// MirrorSampled reports whether a key hash falls in the canary mirror
// sample at the given permille — exported so tests and the smoke
// harness can predict exactly which pairs mirror.
func MirrorSampled(keyHash uint64, permille int) bool {
	return int(mix64(keyHash^mirrorSalt)%1000) < permille
}

// mirror sends the canary its deterministic share of a just-answered
// sub-batch and tallies the bit-identity comparison. Called on the
// success path of sendGroup, while views are valid; from is the replica
// that actually answered — mirroring only happens when that is the
// shadowed incumbent, because the comparison is defined against the
// incumbent's predictions. Observe-only: the sample is selected and its
// Raw spans copied into the mirror's own body synchronously (so which
// keys mirror stays deterministic), but the canary sub-request runs in
// its own goroutine on a detached context bounded by mirrorTimeout — the
// live request returns without waiting on the canary, and every mirror
// failure is counted, none propagates.
func (f *Front) mirror(g *group, from *Replica, preds []bool, views []wire.PairView) {
	c := f.canary.Load()
	if c == nil || from.name != c.target {
		return
	}
	var body []byte
	var want []bool
	for j, kh := range g.khs {
		if MirrorSampled(kh, c.permille) {
			if body == nil {
				body = make([]byte, wire.RequestHeaderRoom)
			}
			body = append(body, views[g.slots[j]].Raw...)
			want = append(want, preds[j])
		}
	}
	if len(want) == 0 {
		return
	}
	f.mirrors.Add(1)
	go func() {
		defer f.mirrors.Done()
		ctx, cancel := context.WithTimeout(context.Background(), mirrorTimeout)
		defer cancel()
		ms, _ := timeLeft(ctx)
		f.compareMirror(ctx, c, wire.FrameRequest(body, ms, len(want)), want)
	}()
}

// compareMirror posts one mirror body to the canary and tallies the
// bit-identity comparison against the incumbent's predictions.
func (f *Front) compareMirror(ctx context.Context, c *canary, body []byte, want []bool) {
	status, resp, err := f.transport.Match(ctx, c.url, body)
	if err != nil || status != http.StatusOK {
		c.errors.Add(1)
		return
	}
	var wr wire.Response
	if serve.ParseWireResponse(resp, &wr) != nil || len(wr.Preds) != len(want) {
		c.errors.Add(1)
		return
	}
	for i := range want {
		if wr.Preds[i] == want[i] {
			c.matched.Add(1)
		} else {
			c.mismatched.Add(1)
		}
	}
	c.mirrored.Add(int64(len(want)))
	f.metrics.mirrored.Add(int64(len(want)))
}

// WaitMirrors blocks until every in-flight canary mirror has completed
// and tallied (each is bounded by mirrorTimeout). Tests and the smoke
// harness call it before reading the canary report; operators just poll
// the report until Ready.
func (f *Front) WaitMirrors() { f.mirrors.Wait() }
