package serve

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/flight"
	"repro/internal/slo"
)

// ErrSLOShed rejects a request under the breach-feeds-admission guard:
// while an SLO objective is in BREACH, a configured fraction of new
// cache-miss traffic is shed before it can queue, converting sustained
// burn into fast 429s instead of deeper queues. It wraps ErrOverloaded,
// so the HTTP mapping (429 + Retry-After) and the router's retryable
// classification follow automatically.
var ErrSLOShed = fmt.Errorf("serve: shedding under SLO breach: %w", backend.ErrOverloaded)

const (
	// stragglerFactor sets the straggler threshold at this multiple of
	// the live p99: a request that slow is tail evidence worth dumping.
	stragglerFactor = 4
	// minStragglerUS floors the threshold so microsecond-fast servers do
	// not dump on every scheduler hiccup.
	minStragglerUS = 1000
)

// initSLO builds the SLO engine from Config.SLOSpecs and binds every
// objective to the server's own cumulative instruments:
//
//	pNN ceilings   → the request latency histogram
//	shed ceilings  → (queue-full + draining + SLO sheds) / requests
//	error ceilings → unrouted: deadline failures / requests;
//	                 routed: one objective per tier (failures/attempts)
//	cost ceilings  → (own priced dollars + routed bill) per 1K pairs
//
// F1 floors need labeled traffic, which the serving path never sees —
// they are rejected here and belong to emroute -slo-assert.
func (s *Server) initSLO() error {
	specs := s.cfg.SLOSpecs
	if len(specs) == 0 {
		return nil
	}
	res := s.cfg.SLOResolution
	if res <= 0 {
		res = AutoSLOResolution(specs)
	}
	e := slo.NewEngine(slo.Config{Clock: s.cfg.SLOClock, Resolution: res})
	m := &s.metrics
	var routedErrs []slo.Spec
	for _, sp := range specs {
		var err error
		switch sp.Kind {
		case slo.KindLatency:
			err = e.AddLatency(sp, m.latency)
		case slo.KindRatio:
			if sp.Name == "error" {
				if s.router != nil {
					// Per-tier binding happens below, after the loop.
					routedErrs = append(routedErrs, sp)
					continue
				}
				err = e.AddRatio(sp,
					func() float64 { return float64(m.deadlineExceeded.Load()) },
					func() float64 { return float64(m.requests.Load()) })
			} else {
				err = e.AddRatio(sp,
					func() float64 {
						return float64(m.shedQueueFull.Load() + m.shedDraining.Load() + m.shedSLO.Load())
					},
					func() float64 { return float64(m.requests.Load()) })
			}
		case slo.KindCost:
			err = e.AddCost(sp,
				func() float64 {
					d := cost.Dollars(m.scoredTokens.Load(), s.pricingRate)
					if s.router != nil {
						d += s.router.TotalCostUSD()
					}
					return d
				},
				func() float64 { return float64(m.pairsScored.Load() + m.pairsCached.Load()) })
		case slo.KindF1:
			err = fmt.Errorf("serve: %s: f1 floors need labeled traffic; use emroute -slo-assert", sp)
		default:
			err = fmt.Errorf("serve: unsupported SLO kind %s", sp.Kind)
		}
		if err != nil {
			return err
		}
	}
	if len(routedErrs) > 0 {
		if err := s.router.BindSLOs(e, routedErrs); err != nil {
			return err
		}
	}
	e.RegisterMetrics(s.reg)
	e.OnTransition(s.onSLOTransition)
	s.sloEngine = e
	return nil
}

// AutoSLOResolution derives the engine sample spacing from the tightest
// short window: five samples per short window, clamped to [50ms, 1s].
func AutoSLOResolution(specs []slo.Spec) time.Duration {
	res := time.Second
	for _, sp := range specs {
		if r := sp.Short / 5; r < res {
			res = r
		}
	}
	if res < 50*time.Millisecond {
		res = 50 * time.Millisecond
	}
	return res
}

// onSLOTransition is the engine callback wired at construction: breach
// transitions dump flight-recorder evidence and count, and every
// transition re-derives the admission guard from the worst state.
// Callbacks fire from the tick loop, never a request path, so the
// synchronous dump is safe.
func (s *Server) onSLOTransition(tr slo.Transition) {
	if tr.To == slo.Breach {
		s.metrics.sloBreaches.Add(1)
		_, _ = s.fdump.Trigger("breach-" + tr.Name)
	}
	if s.cfg.BreachShedPermille > 0 {
		if s.sloEngine.Worst() == slo.Breach {
			s.preShed.Store(int64(s.cfg.BreachShedPermille))
		} else {
			s.preShed.Store(0)
		}
	}
	if cb := s.cfg.OnSLOTransition; cb != nil {
		cb(tr)
	}
}

// TickSLO runs one evaluation pass over every bound objective and
// refreshes the flight recorder's straggler threshold from the live
// p99. The background loop calls it once per tick interval; tests with
// SLOTick < 0 drive it directly under a virtual clock. The returned
// slice is the engine's scratch — copy to retain.
func (s *Server) TickSLO() []slo.Status {
	out := s.sloEngine.Tick()
	if s.flight != nil {
		if p99 := s.metrics.latency.Quantile(0.99); p99 > 0 {
			thr := int64(p99) * stragglerFactor
			if thr < minStragglerUS {
				thr = minStragglerUS
			}
			s.flight.SetStragglerUS(thr)
		}
	}
	return out
}

// sloLoop ticks the engine until Shutdown closes sloStop.
func (s *Server) sloLoop(tick time.Duration) {
	defer s.workers.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.sloStop:
			return
		case <-t.C:
			s.TickSLO()
		}
	}
}

// SLO returns the server's SLO engine, or nil when no objectives are
// configured (the nil engine is a valid disabled engine).
func (s *Server) SLO() *slo.Engine { return s.sloEngine }

// Flight returns the per-request flight recorder, or nil when disabled.
func (s *Server) Flight() *flight.Recorder { return s.flight }

// FlightDump returns the evidence dumper, or nil when disabled.
func (s *Server) FlightDump() *flight.Dumper { return s.fdump }

// SLOResponse is the /slo body: the worst state, the breach count, and
// one Status per objective. emwatch polls it.
type SLOResponse struct {
	Matcher    string       `json:"matcher"`
	State      slo.State    `json:"state"`
	Breaches   int64        `json:"breaches"`
	Objectives []slo.Status `json:"objectives"`
}

// SLOHandler serves GET /slo for engine e (404 when e is nil): the one
// /slo body of the replica and fleet HTTP surfaces.
func SLOHandler(matcher string, e *slo.Engine, breaches func() int64) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if e == nil {
			writeError(w, http.StatusNotFound, "no SLOs configured")
			return
		}
		WriteJSON(w, http.StatusOK, SLOResponse{
			Matcher:    matcher,
			State:      e.Worst(),
			Breaches:   breaches(),
			Objectives: e.Snapshot(),
		})
	}
}

// shedCode maps an admission rejection onto its flight-record code.
func shedCode(err error) flight.Code {
	switch {
	case errors.Is(err, ErrSLOShed):
		return flight.CodeShedSLO
	case errors.Is(err, ErrQueueFull):
		return flight.CodeShedQueue
	case errors.Is(err, ErrDraining):
		return flight.CodeShedDrain
	}
	return flight.CodeError
}

// flightEdge records a request that never reached a worker — pure cache
// hits and admission sheds. Nil-safe; the disabled path is one branch.
func (s *Server) flightEdge(key uint64, code flight.Code, pairs int) {
	if s.flight == nil {
		return
	}
	s.flight.Log(flight.Record{
		TimeUS: time.Since(s.started).Microseconds(),
		Key:    key,
		Code:   code,
		Tier:   -1,
		Pairs:  flight.ClampPairs(pairs),
	})
}

// flightScored records a request the worker pool finished (scored,
// expired, or degraded), splitting its life into queue wait, batch
// residency and predict time, and fires the straggler dump when the
// total latency crosses the published p99-derived threshold.
func (s *Server) flightScored(r *request, code flight.Code, tier int8, predictUS int64) {
	if s.flight == nil {
		return
	}
	now := time.Now()
	s.flight.Log(flight.Record{
		TimeUS:    now.Sub(s.started).Microseconds(),
		Key:       r.key,
		Code:      code,
		Tier:      tier,
		Pairs:     flight.ClampPairs(len(r.pairs)),
		QueueUS:   flight.ClampUS(r.pickup.Sub(r.enqueued).Microseconds()),
		BatchUS:   flight.ClampUS(now.Sub(r.pickup).Microseconds()),
		PredictUS: flight.ClampUS(predictUS),
		CostNano:  int64(r.res.CostUSD * 1e9),
	})
	if s.flight.IsStraggler(now.Sub(r.enqueued).Microseconds()) {
		s.fdump.TriggerAsync("straggler")
	}
}
