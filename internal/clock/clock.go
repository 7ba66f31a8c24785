// Package clock is the one time source of the routing, SLO, serving and
// fleet layers. Serving runs on the real clock; the emroute sweep and the
// tests run on a virtual clock that backends and backoffs advance by
// their simulated durations — a whole failure-injected sweep takes
// milliseconds of wall time, and every latency quantile, burn-rate window
// and breaker cooldown is deterministic per seed.
package clock

import (
	"sync/atomic"
	"time"
)

// Clock is monotonic elapsed time since an arbitrary epoch.
type Clock interface {
	// Now returns the time elapsed since the clock's epoch.
	Now() time.Duration
	// Sleep advances the clock by d (really, for the real clock;
	// instantly, for the virtual one). A non-positive d is a no-op.
	Sleep(d time.Duration)
}

// Real is the wall clock, anchored at its construction.
type Real struct {
	epoch time.Time
}

// NewReal returns a real clock with epoch now.
func NewReal() *Real { return &Real{epoch: time.Now()} }

// Now implements Clock.
func (c *Real) Now() time.Duration { return time.Since(c.epoch) }

// Sleep implements Clock.
func (c *Real) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Virtual is a deterministic simulated clock: Now returns the
// accumulated virtual time and Sleep advances it without blocking. The
// zero value is ready at time 0. Safe for concurrent use (the serve
// dispatcher may drive one router from several workers), though
// deterministic replay additionally requires a sequential caller.
type Virtual struct {
	now atomic.Int64
}

// Now implements Clock.
func (c *Virtual) Now() time.Duration { return time.Duration(c.now.Load()) }

// Sleep implements Clock.
func (c *Virtual) Sleep(d time.Duration) {
	if d > 0 {
		c.now.Add(int64(d))
	}
}
