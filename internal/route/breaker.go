package route

import (
	"errors"
	"sync"
	"time"

	"repro/internal/clock"
)

// ErrBreakerOpen is the terminal error a tier reports while its circuit
// breaker rejects calls. It is deliberately NOT backend.Retryable: when
// the breaker is open the right move is to fail over to the next tier
// immediately, not to burn the retry budget on a backend known to be
// down.
var ErrBreakerOpen = errors.New("route: circuit breaker open")

// State is a circuit breaker state.
type State uint8

// Breaker states, in the classic three-state design.
const (
	// Closed: calls flow, consecutive failures are counted.
	Closed State = iota
	// Open: calls are rejected without touching the backend until the
	// cooldown elapses.
	Open
	// HalfOpen: one probe call is admitted; its outcome decides between
	// re-closing and re-opening.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that trips the
	// breaker open. Default 5.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects calls before admitting
	// a half-open probe. Default 30s.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Breaker is a per-backend circuit breaker: consecutive failures trip it
// open, a cooldown later one probe is admitted half-open, and the
// probe's outcome re-closes or re-opens it. All timing goes through the
// router's Clock, so breaker trajectories are deterministic under the
// virtual clock.
//
// Breaker is safe for concurrent use. Under concurrency the admitted
// half-open probe is whichever caller wins Allow; determinism
// additionally requires a sequential caller, same as the router.
type Breaker struct {
	cfg   BreakerConfig
	clock clock.Clock
	// onTransition, when set, observes every state change (for metrics).
	// Called with the breaker's lock held — must not call back in.
	onTransition func(from, to State)

	mu       sync.Mutex
	state    State
	fails    int           // consecutive failures while Closed
	openedAt time.Duration // clock time of the last trip
	probing  bool          // a half-open probe is in flight
}

// NewBreaker returns a closed breaker on the given clock.
func NewBreaker(cfg BreakerConfig, clk clock.Clock) *Breaker {
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Breaker{cfg: cfg.withDefaults(), clock: clk}
}

// State returns the current state (Open is reported as-is even when the
// cooldown has elapsed; the transition to HalfOpen happens in Allow).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Allow reports whether a call may proceed. While open it rejects until
// the cooldown elapses, then flips half-open and admits exactly one
// probe; further calls are rejected until that probe's Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now()-b.openedAt < b.cfg.Cooldown {
			return false
		}
		b.transition(HalfOpen)
		b.probing = true
		return true
	case HalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Record reports the outcome of a call previously admitted by Allow.
// err is classified failure when non-nil. Closed: success resets the
// consecutive-failure count, failure increments it and trips the breaker
// at the threshold. HalfOpen: the probe's success re-closes, its failure
// re-opens for another cooldown. Open: late records of calls admitted
// before the trip are ignored.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if err == nil {
			b.fails = 0
			return
		}
		b.noteFailureLocked()
	case HalfOpen:
		b.probing = false
		if err == nil {
			b.transition(Closed)
			b.fails = 0
			return
		}
		b.trip()
	case Open:
		// A call admitted before the trip finished after it; the breaker
		// already acted on fresher information.
	}
}

// NoteFailure feeds an out-of-band failure signal — e.g. the serving
// layer shedding with a 429 before any backend call happens. It counts
// toward the consecutive-failure threshold only while Closed: half-open
// probe bookkeeping must be driven solely by the probe's own Record, and
// an open breaker needs no more bad news.
func (b *Breaker) NoteFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed {
		b.noteFailureLocked()
	}
}

// NoteSuccess feeds an out-of-band success signal — e.g. the fleet
// router completing a request against a replica outside the probe path.
// Like NoteFailure it only acts while Closed (resetting the consecutive
// failure count); half-open recovery stays owned by the Allow/Record
// probe so a lucky request racing the probe cannot close the breaker.
func (b *Breaker) NoteSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed {
		b.fails = 0
	}
}

// OnTransition registers cb to observe every state change. The callback
// runs with the breaker's lock held — it must not call back into the
// breaker. Call before the breaker is shared; it is not synchronised
// against in-flight Allow/Record.
func (b *Breaker) OnTransition(cb func(from, to State)) { b.onTransition = cb }

func (b *Breaker) noteFailureLocked() {
	b.fails++
	if b.fails >= b.cfg.FailureThreshold {
		b.trip()
	}
}

func (b *Breaker) trip() {
	b.transition(Open)
	b.openedAt = b.clock.Now()
	b.fails = 0
	b.probing = false
}

func (b *Breaker) transition(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}
