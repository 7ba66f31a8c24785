// Package slo evaluates declarative service-level objectives over the
// repository's obs metrics using multi-window burn rates: each
// objective watches a long and a short rolling window of a cumulative
// counter/histogram, computes burn = observed/limit per window, and
// reports OK, WARN (short window hot, or long window approaching its
// budget) or BREACH (both windows over budget — the SRE-style
// fast-and-sustained condition that filters out blips). The engine is
// driven by an injectable Clock, so the whole state machine is
// deterministic under a clock.Virtual; transition callbacks feed
// admission control and the flight-recorder dumper in internal/serve.
package slo

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind classifies what an objective measures.
type Kind uint8

const (
	// KindLatency is a latency-quantile ceiling over a log2 µs histogram
	// (p50<=2ms, p99<=50ms).
	KindLatency Kind = iota
	// KindRatio is a bad/total rate ceiling (shed<=1%, error<=0.5%).
	KindRatio
	// KindCost is a routed-dollars budget per 1000 scored pairs
	// (cost<=0.25).
	KindCost
	// KindF1 is a quality floor on labeled traffic (f1>=0.7).
	KindF1
)

// String returns the kind's stable name.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindRatio:
		return "ratio"
	case KindCost:
		return "cost"
	case KindF1:
		return "f1"
	}
	return "kind_" + strconv.Itoa(int(k))
}

// Spec is one parsed objective.
//
// Grammar (ParseSpecs accepts a comma-separated list):
//
//	p50<=2ms            latency quantile ceiling (duration, or bare ms)
//	p99<=50ms@30s/5s    ... with explicit long/short windows
//	shed<=1%            shed-rate ceiling (percent or fraction)
//	error<=0.5%         error-rate ceiling
//	cost<=0.25          routed $ per 1K scored pairs ceiling
//	f1>=0.7             F1 floor (labeled traffic only)
//
// The window suffix is `@LONG/SHORT`; `@LONG` alone derives
// SHORT = LONG/6 (the classic 5m/1h ratio). Defaults: 1m/10s.
type Spec struct {
	Name     string        // objective name: "p99", "shed", "error", "cost", "f1"
	Kind     Kind          // what Limit bounds
	Quantile float64       // latency only: 0.99 for p99
	Limit    float64       // µs (latency), fraction (ratio), $/1K (cost), floor (f1)
	Floor    bool          // true when Limit is a floor (f1>=) rather than a ceiling
	Long     time.Duration // sustained burn window
	Short    time.Duration // fast burn window
	Raw      string        // the original token, for display
}

// String returns the original spec token.
func (sp Spec) String() string {
	if sp.Raw != "" {
		return sp.Raw
	}
	op := "<="
	if sp.Floor {
		op = ">="
	}
	return fmt.Sprintf("%s%s%s@%s/%s", sp.Name, op, sp.FormatValue(sp.Limit), sp.Long, sp.Short)
}

// FormatValue renders a measured value in the objective's natural unit.
func (sp Spec) FormatValue(v float64) string {
	switch sp.Kind {
	case KindLatency:
		return time.Duration(v * float64(time.Microsecond)).Round(time.Microsecond).String()
	case KindRatio:
		return strconv.FormatFloat(v*100, 'g', 4, 64) + "%"
	case KindCost:
		return "$" + strconv.FormatFloat(v, 'g', 4, 64) + "/1K"
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// ParseSpecs parses a comma-separated objective list.
func ParseSpecs(s string) ([]Spec, error) {
	var out []Spec
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		sp, err := ParseSpec(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	if len(out) == 0 {
		return nil, errors.New("slo: empty objective list")
	}
	return out, nil
}

// ParseSpec parses one objective token.
func ParseSpec(tok string) (Spec, error) {
	sp := Spec{Raw: tok, Long: time.Minute, Short: 10 * time.Second}
	body := tok
	if i := strings.IndexByte(tok, '@'); i >= 0 {
		body = tok[:i]
		if err := sp.parseWindows(tok[i+1:]); err != nil {
			return Spec{}, err
		}
	}
	op := "<="
	idx := strings.Index(body, "<=")
	if idx < 0 {
		idx = strings.Index(body, ">=")
		op = ">="
	}
	if idx < 0 {
		return Spec{}, fmt.Errorf("slo: %q: want NAME<=LIMIT or NAME>=LIMIT", tok)
	}
	sp.Name = strings.ToLower(strings.TrimSpace(body[:idx]))
	val := strings.TrimSpace(body[idx+2:])
	var err error
	switch {
	case len(sp.Name) > 1 && sp.Name[0] == 'p' && isNumeric(sp.Name[1:]):
		sp.Kind = KindLatency
		var q float64
		if q, err = strconv.ParseFloat(sp.Name[1:], 64); err == nil && (q <= 0 || q >= 100) {
			err = fmt.Errorf("quantile %v out of (0, 100)", q)
		}
		sp.Quantile = q / 100
		if err == nil {
			sp.Limit, err = parseLatencyUS(val)
		}
	case sp.Name == "shed" || sp.Name == "error":
		sp.Kind = KindRatio
		sp.Limit, err = parseRatio(val)
	case sp.Name == "cost":
		sp.Kind = KindCost
		sp.Limit, err = strconv.ParseFloat(strings.TrimPrefix(val, "$"), 64)
	case sp.Name == "f1":
		sp.Kind = KindF1
		sp.Floor = true
		if sp.Limit, err = strconv.ParseFloat(val, 64); err == nil && (sp.Limit <= 0 || sp.Limit > 1) {
			err = fmt.Errorf("f1 floor %v out of (0, 1]", sp.Limit)
		}
	default:
		return Spec{}, fmt.Errorf("slo: %q: unknown objective %q (want pNN, shed, error, cost, f1)", tok, sp.Name)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("slo: %q: %w", tok, err)
	}
	if sp.Floor != (op == ">=") {
		if sp.Floor {
			return Spec{}, fmt.Errorf("slo: %q: f1 is a floor, use >=", tok)
		}
		return Spec{}, fmt.Errorf("slo: %q: %s is a ceiling, use <=", tok, sp.Name)
	}
	if !sp.Floor && sp.Limit <= 0 {
		return Spec{}, fmt.Errorf("slo: %q: limit must be positive", tok)
	}
	return sp, nil
}

func (sp *Spec) parseWindows(w string) error {
	long, short, ok := strings.Cut(w, "/")
	d, err := time.ParseDuration(long)
	if err != nil || d <= 0 {
		return fmt.Errorf("slo: bad long window %q", long)
	}
	sp.Long = d
	if ok {
		ds, err := time.ParseDuration(short)
		if err != nil || ds <= 0 {
			return fmt.Errorf("slo: bad short window %q", short)
		}
		sp.Short = ds
	} else {
		sp.Short = d / 6
	}
	if sp.Short >= sp.Long {
		return fmt.Errorf("slo: short window %v must be below long window %v", sp.Short, sp.Long)
	}
	return nil
}

// parseLatencyUS accepts a Go duration ("5ms", "250us") or a bare
// number meaning milliseconds, returning microseconds.
func parseLatencyUS(val string) (float64, error) {
	if d, err := time.ParseDuration(val); err == nil {
		if d <= 0 {
			return 0, fmt.Errorf("latency limit %v must be positive", d)
		}
		return float64(d) / float64(time.Microsecond), nil
	}
	ms, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad latency limit %q", val)
	}
	return ms * 1000, nil
}

// parseRatio accepts "1%", "0.5%" or a bare fraction "0.01".
func parseRatio(val string) (float64, error) {
	if p, ok := strings.CutSuffix(val, "%"); ok {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return 0, fmt.Errorf("bad percentage %q", val)
		}
		return f / 100, nil
	}
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad ratio %q", val)
	}
	if f > 1 {
		return 0, fmt.Errorf("ratio %v above 1 — did you mean %q?", f, val+"%")
	}
	return f, nil
}

func isNumeric(s string) bool {
	dot := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '.' && !dot {
			dot = true
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return len(s) > 0
}
