package route

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

var errBoom = errors.New("boom")

func testBreaker(threshold int, cooldown time.Duration) (*Breaker, *clock.Virtual) {
	vc := &clock.Virtual{}
	b := NewBreaker(BreakerConfig{FailureThreshold: threshold, Cooldown: cooldown}, vc)
	return b, vc
}

func TestBreakerTripsOnConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		b.Record(errBoom)
		if got := b.State(); got != Closed {
			t.Fatalf("after %d failures state = %v, want closed", i+1, got)
		}
	}
	b.Allow()
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("after threshold failures state = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	b, _ := testBreaker(3, time.Second)
	b.Record(errBoom)
	b.Record(errBoom)
	b.Record(nil) // success wipes the streak
	b.Record(errBoom)
	b.Record(errBoom)
	if got := b.State(); got != Closed {
		t.Fatalf("state = %v after interleaved successes, want closed", got)
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clock := testBreaker(1, time.Second)
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state = %v, want open", got)
	}

	clock.Sleep(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker admitted a call before the cooldown elapsed")
	}
	clock.Sleep(time.Millisecond)

	// Cooldown elapsed: exactly one probe is admitted.
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	if got := b.State(); got != HalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if b.Allow() {
		t.Fatal("breaker admitted a second call while the probe is in flight")
	}

	// Probe success re-closes.
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("state after probe success = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker rejected a call")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clock := testBreaker(1, time.Second)
	b.Record(errBoom)
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	b.Record(errBoom)
	if got := b.State(); got != Open {
		t.Fatalf("state after probe failure = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call without a fresh cooldown")
	}
	// A fresh cooldown admits the next probe.
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the probe after the second cooldown")
	}
}

func TestBreakerNoteFailure(t *testing.T) {
	b, clock := testBreaker(2, time.Second)
	// Out-of-band shed signals trip a closed breaker...
	b.NoteFailure()
	b.NoteFailure()
	if got := b.State(); got != Open {
		t.Fatalf("state after NoteFailure x2 = %v, want open", got)
	}
	// ...but never corrupt half-open probe bookkeeping.
	clock.Sleep(time.Second)
	if !b.Allow() {
		t.Fatal("breaker rejected the half-open probe")
	}
	b.NoteFailure() // must be ignored in half-open
	if got := b.State(); got != HalfOpen {
		t.Fatalf("NoteFailure in half-open moved state to %v", got)
	}
	b.Record(nil)
	if got := b.State(); got != Closed {
		t.Fatalf("probe success after NoteFailure left state %v, want closed", got)
	}
}

func TestBreakerLateRecordIgnoredWhileOpen(t *testing.T) {
	b, _ := testBreaker(1, time.Second)
	if !b.Allow() || !b.Allow() {
		t.Fatal("closed breaker rejected calls")
	}
	b.Record(errBoom) // trips
	b.Record(nil)     // the other in-flight call lands late — must not re-close
	if got := b.State(); got != Open {
		t.Fatalf("late success record moved open breaker to %v", got)
	}
}

func TestBreakerTransitionCallback(t *testing.T) {
	b, clock := testBreaker(1, time.Second)
	var got []string
	b.onTransition = func(from, to State) { got = append(got, from.String()+">"+to.String()) }
	b.Record(errBoom)
	clock.Sleep(time.Second)
	b.Allow()
	b.Record(nil)
	want := []string{"closed>open", "open>half-open", "half-open>closed"}
	if len(got) != len(want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestBreakerConcurrent hammers one breaker from many goroutines under
// -race: the state machine must stay internally consistent (no panic,
// no race) even though the interleaving is nondeterministic.
func TestBreakerConcurrent(t *testing.T) {
	b, clock := testBreaker(5, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					if (i+g)%3 == 0 {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				}
				if i%7 == 0 {
					b.NoteFailure()
				}
				if i%11 == 0 {
					clock.Sleep(time.Millisecond)
				}
				_ = b.State()
			}
		}(g)
	}
	wg.Wait()
	if s := b.State(); s != Closed && s != Open && s != HalfOpen {
		t.Fatalf("breaker ended in invalid state %d", s)
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", State(9): "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
