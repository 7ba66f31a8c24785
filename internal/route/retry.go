package route

import (
	"time"

	"repro/internal/backend"
)

// RetryConfig parameterizes per-tier retries of retryable errors
// (backend.Retryable): exponential backoff with deterministic jitter.
type RetryConfig struct {
	// MaxAttempts is the total attempt budget per tier, first try
	// included. Default 3.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry. Default 100ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Default 2s.
	MaxBackoff time.Duration
	// Jitter is the +/- fraction applied to each backoff (0.2 = ±20%),
	// drawn deterministically from the call hash. Default 0.2.
	Jitter float64
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.2
	}
	return c
}

// Backoff returns the delay before retry number attempt (1 = first
// retry): BaseBackoff doubled per attempt, capped at MaxBackoff, with
// ±Jitter drawn from h — a pure function of its arguments, so routing
// replays identically at any parallelism.
func (c RetryConfig) Backoff(attempt int, h uint64) time.Duration {
	d := c.BaseBackoff << (attempt - 1)
	if d <= 0 || d > c.MaxBackoff {
		d = c.MaxBackoff
	}
	f := 1 + c.Jitter*(2*backend.Draw(h, saltBackoff)-1)
	return time.Duration(float64(d) * f)
}

// saltBackoff separates the backoff jitter draw from the backend
// package's outcome draws.
const saltBackoff = 0x6b8e4c5f2d913a77
