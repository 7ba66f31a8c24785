package clock

import (
	"sync"
	"testing"
	"time"
)

func TestVirtual(t *testing.T) {
	cases := []struct {
		name string
		do   func(c *Virtual)
		want time.Duration
	}{
		{"zero value reads 0", func(*Virtual) {}, 0},
		{"sleep accumulates", func(c *Virtual) { c.Sleep(time.Second); c.Sleep(500 * time.Millisecond) }, 1500 * time.Millisecond},
		{"zero sleep is a no-op", func(c *Virtual) { c.Sleep(time.Second); c.Sleep(0) }, time.Second},
		{"negative sleep is a no-op", func(c *Virtual) { c.Sleep(time.Second); c.Sleep(-time.Minute) }, time.Second},
		{"set jumps forward", func(c *Virtual) { c.Set(time.Hour) }, time.Hour},
		{"set jumps back", func(c *Virtual) { c.Sleep(time.Hour); c.Set(time.Second) }, time.Second},
		{"sleep after set", func(c *Virtual) { c.Set(time.Minute); c.Sleep(time.Second) }, time.Minute + time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Virtual{}
			tc.do(c)
			if got := Clock(c).Now(); got != tc.want {
				t.Fatalf("Now() = %v, want %v", got, tc.want)
			}
		})
	}
}

// Concurrent sleeps must sum exactly: the serve dispatcher drives one
// router, and so one clock, from several workers.
func TestVirtualConcurrentSleep(t *testing.T) {
	const goroutines, sleeps = 8, 1000
	c := &Virtual{}
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < sleeps; i++ {
				c.Sleep(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Now(), goroutines*sleeps*time.Microsecond; got != want {
		t.Fatalf("Now() = %v after concurrent sleeps, want %v", got, want)
	}
}

func TestReal(t *testing.T) {
	var c Clock = NewReal()
	before := c.Now()
	c.Sleep(-time.Hour) // non-positive: returns at once
	c.Sleep(2 * time.Millisecond)
	if got := c.Now() - before; got < 2*time.Millisecond {
		t.Fatalf("real clock advanced %v across a 2ms sleep", got)
	}
}
