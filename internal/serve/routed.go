package serve

import (
	"context"
	"time"

	"repro/internal/flight"
	"repro/internal/matchers"
)

// scoreRouted is the batch-invariant scoring path when a route.Router is
// configured: the coalesced micro-batch is flattened exactly like
// scoreCoalesced, but every pair travels the retry/breaker/cascade
// machinery instead of a direct matcher call, and each delivered
// decision carries the routed bill of every attempt it caused.
func (s *Server) scoreRouted(ctx context.Context, live []*request, npairs int) {
	sc := batchPool.Get().(*batchScratch)
	task := matchers.Task{Ctx: ctx, Opts: s.opts, Pairs: sc.pairs[:0]}
	for _, r := range live {
		task.Pairs = append(task.Pairs, r.pairs...)
	}
	t0 := time.Now()
	outcomes := s.router.RoutePairs(task, sc.outcomes[:0])
	predictUS := time.Since(t0).Microseconds()
	s.metrics.pairsScored.Add(int64(npairs)) // before any finish, as in scoreCoalesced
	i := 0
	for _, r := range live {
		// The request-level flight record carries the deepest tier any of
		// its pairs escalated to; per-pair tiers live in the router's own
		// flight records.
		maxTier := int8(-1)
		for j := range r.pairs {
			o := &outcomes[i]
			s.deliver(r, j, o.Match)
			r.res.CostUSD += o.CostUSD
			r.res.Tokens += int(o.Tokens)
			if t := int8(o.Tier); t > maxTier {
				maxTier = t
			}
			i++
		}
		r.span.SetStr("outcome", "ok")
		s.flightScored(r, flight.CodeScored, maxTier, predictUS)
		r.finish()
	}
	sc.pairs = task.Pairs[:0]
	sc.outcomes = outcomes[:0]
	batchPool.Put(sc)
}
