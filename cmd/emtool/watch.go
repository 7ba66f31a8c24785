package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/serve"
	"repro/internal/slo"
)

// emtool watch is a polling terminal dashboard for a running emserve
// instance: it scrapes /stats and /slo every interval and renders live
// throughput (delta-based req/s and pairs/s between polls), latency
// quantiles, shed and cache rates, dollar cost, and each SLO objective's
// burn-rate status. With -exit-on-breach (the default) it exits with
// code 3 the moment any objective is in BREACH, so scripts and CI gates
// can watch a service and fail when it runs out of error budget.
//
//	emtool watch [-url http://localhost:8080] [-interval 1s] [-n 0]
//	             [-plain] [-once] [-exit-on-breach=true]
//	emtool watch -addr http://host:8081 -addr http://host:8082 ...
//	emtool watch -fleet http://host:8080
//
// -n bounds the number of polls (0 = until interrupted or breached);
// -plain appends frames instead of redrawing, for logs and pipes; -once
// is shorthand for -plain -n 1.
//
// -addr and -fleet (an emserve -replicas front) are the fleet modes; see
// watch_multi.go.

type watchConfig struct {
	URL          string   // single-service mode: base URL
	Addrs        []string // -addr mode: replica base URLs
	FleetURL     string   // -fleet mode: front router base URL
	Interval     time.Duration
	Count        int
	Plain        bool
	ExitOnBreach bool
}

func parseWatchFlags(args []string) (watchConfig, error) {
	var cfg watchConfig
	fs := flag.NewFlagSet("emtool watch", flag.ContinueOnError)
	fs.StringVar(&cfg.URL, "url", "http://localhost:8080", "base URL of the emserve instance")
	fs.Func("addr", "replica base URL (repeatable); watch several replicas side by side", func(v string) error {
		cfg.Addrs = append(cfg.Addrs, v)
		return nil
	})
	fs.StringVar(&cfg.FleetURL, "fleet", "", "front-router base URL; watch the whole fleet through its /stats")
	fs.DurationVar(&cfg.Interval, "interval", time.Second, "poll interval")
	fs.IntVar(&cfg.Count, "n", 0, "number of polls (0 = until interrupted or breached)")
	fs.BoolVar(&cfg.Plain, "plain", false, "append frames instead of redrawing the screen")
	once := fs.Bool("once", false, "poll once, print one frame, exit (implies -plain -n 1)")
	fs.BoolVar(&cfg.ExitOnBreach, "exit-on-breach", true, "exit with code 3 as soon as any SLO objective is in BREACH")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if *once {
		cfg.Plain, cfg.Count = true, 1
	}
	if cfg.FleetURL != "" && len(cfg.Addrs) > 0 {
		return cfg, fmt.Errorf("-fleet and -addr are mutually exclusive")
	}
	return cfg, nil
}

func watchMain(args []string, out io.Writer) error {
	cfg, err := parseWatchFlags(args)
	if err != nil {
		return usageError{err}
	}
	var breached bool
	if cfg.FleetURL != "" || len(cfg.Addrs) > 0 {
		breached, err = watchMulti(cfg, out)
	} else {
		var worst slo.State
		worst, err = watch(cfg, out)
		breached = worst == slo.Breach
	}
	if err == nil && cfg.ExitOnBreach && breached {
		err = errBreach
	}
	return err
}

// sample is one poll of the service's observability surface.
type sample struct {
	at    time.Time
	stats serve.Stats
	// slo is nil when the service has no objectives configured (/slo 404).
	slo *serve.SLOResponse
}

// watch polls until the count runs out or (with ExitOnBreach) an
// objective breaches, rendering one frame per poll. It returns the worst
// SLO state seen across the run.
func watch(cfg watchConfig, out io.Writer) (slo.State, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	worst := slo.OK
	var prev *sample
	for i := 0; cfg.Count <= 0 || i < cfg.Count; i++ {
		if i > 0 {
			time.Sleep(cfg.Interval)
		}
		cur, err := pollOnce(client, cfg.URL)
		if err != nil {
			return worst, err
		}
		if !cfg.Plain {
			fmt.Fprint(out, "\x1b[H\x1b[2J") // home + clear
		}
		render(out, prev, cur)
		if cur.slo != nil && cur.slo.State > worst {
			worst = cur.slo.State
		}
		if cfg.ExitOnBreach && worst == slo.Breach {
			return worst, nil
		}
		c := cur
		prev = &c
	}
	return worst, nil
}

// pollOnce scrapes /stats (required) and /slo (404 means no objectives).
func pollOnce(client *http.Client, base string) (sample, error) {
	s := sample{at: time.Now()}
	var err error
	if s.stats, err = serve.FetchStats(context.Background(), client, base); err != nil {
		return s, fmt.Errorf("stats: %w", err)
	}
	if s.slo, err = serve.FetchSLO(context.Background(), client, base); err != nil {
		return s, fmt.Errorf("slo: %w", err)
	}
	return s, nil
}

// render draws one dashboard frame. The traffic rates are deltas between
// consecutive polls; the first frame falls back to lifetime averages.
func render(w io.Writer, prev *sample, cur sample) {
	st := cur.stats
	state := "no slo"
	if cur.slo != nil {
		state = cur.slo.State.String()
	}
	fmt.Fprintf(w, "emwatch  %s  up %.1fs  [%s]\n", st.Matcher, st.UptimeSec, state)
	qps, pps := rates(prev, cur)
	fmt.Fprintf(w, "  traffic %9.1f req/s %10.1f pairs/s   p50 %s  p95 %s  p99 %s\n",
		qps, pps, fmtUS(st.LatencyP50Us), fmtUS(st.LatencyP95Us), fmtUS(st.LatencyP99Us))
	shed := st.ShedQueueFull + st.ShedDraining + st.ShedSLO
	fmt.Fprintf(w, "  shed    %9d (queue %d, slo %d, drain %d)  expired %d  cache %.1f%%  cost $%.4f\n",
		shed, st.ShedQueueFull, st.ShedSLO, st.ShedDraining, st.PairsExpired,
		100*st.CacheHitRate, st.TotalCostUSD)
	if cur.slo == nil {
		fmt.Fprintln(w, "  slo     none configured")
		return
	}
	fmt.Fprintf(w, "  slo     %s  (%d objectives, %d breaches since start)\n",
		cur.slo.State, len(cur.slo.Objectives), cur.slo.Breaches)
	for _, o := range cur.slo.Objectives {
		fmt.Fprintf(w, "    %s\n", slo.FormatStatus(o))
	}
}

// rates returns the request and pair throughput between two polls.
func rates(prev *sample, cur sample) (qps, pps float64) {
	pairs := func(s serve.Stats) int64 { return s.PairsScored + s.PairsCached }
	if prev == nil {
		if up := cur.stats.UptimeSec; up > 0 {
			return float64(cur.stats.Requests) / up, float64(pairs(cur.stats)) / up
		}
		return 0, 0
	}
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	return float64(cur.stats.Requests-prev.stats.Requests) / dt,
		float64(pairs(cur.stats)-pairs(prev.stats)) / dt
}

// fmtUS renders a microsecond quantile as ms with µs precision.
func fmtUS(us float64) string {
	return fmt.Sprintf("%.3fms", us/1000)
}
