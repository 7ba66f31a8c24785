package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/wire"
)

// Client-side plumbing for the service's observability surface: the
// fleet router scrapes every replica's /stats and /slo to build its
// aggregate view, and emwatch renders the same snapshots as dashboard
// rows. Both go through these helpers so schema-version checking lives
// in exactly one place.

// ErrStatsSchema reports a /stats body whose schema_version this client
// does not understand.
type ErrStatsSchema struct {
	Got int
}

func (e *ErrStatsSchema) Error() string {
	return fmt.Sprintf("serve: /stats schema version %d, this client understands <= %d",
		e.Got, StatsSchemaVersion)
}

// FetchStats GETs base+"/stats" and decodes the snapshot. A schema
// version newer than this client understands is an error (fields may
// have changed meaning); zero is tolerated as a pre-versioning server.
// ctx cancels the request — the fleet router's probe and stats loops
// must not block shutdown on an unresponsive replica.
func FetchStats(ctx context.Context, client *http.Client, base string) (Stats, error) {
	var st Stats
	if err := getJSON(ctx, client, base+"/stats", &st); err != nil {
		return st, err
	}
	if st.SchemaVersion > StatsSchemaVersion {
		return st, &ErrStatsSchema{Got: st.SchemaVersion}
	}
	return st, nil
}

// FetchSLO GETs base+"/slo". A 404 means the service has no objectives
// configured and returns (nil, nil) — not an error, watchers render it
// as "none configured".
func FetchSLO(ctx context.Context, client *http.Client, base string) (*SLOResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/slo", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var sr SLOResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return nil, err
		}
		return &sr, nil
	case http.StatusNotFound:
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, nil
	default:
		return nil, fmt.Errorf("%s/slo: status %d", base, resp.StatusCode)
	}
}

// FetchHealthz GETs base+"/healthz" and reports whether the service
// answered 200 — the probe the fleet router's breaker-ejection loop
// runs against every replica. ctx cancels the probe so a hung replica
// cannot stall the probe loop (or Front.Close) for the client timeout.
func FetchHealthz(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/healthz: status %d", base, resp.StatusCode)
	}
	return nil
}

// PostWire POSTs one request frame to base+"/match" and returns the HTTP
// status with the raw reply frame (a TResp under 200, a TErr otherwise).
// It is the one binary-protocol client: the load generator, the smoke
// gates and the fleet's HTTP transport all send through it. ctx cancels
// the exchange, and the reply read is bounded by the largest legal frame.
func PostWire(ctx context.Context, client *http.Client, base string, frame []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/match", bytes.NewReader(frame))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	return resp.StatusCode, reply, err
}

// ParseWireResponse decodes the reply frame of a 200 /match exchange
// into wr, rejecting anything but a well-formed TResp.
func ParseWireResponse(reply []byte, wr *wire.Response) error {
	typ, payload, err := wire.ParseFrame(reply)
	if err != nil {
		return fmt.Errorf("bad response frame: %w", err)
	}
	if typ != wire.TResp {
		return fmt.Errorf("bad response frame: type %d, want TResp", typ)
	}
	return wr.Decode(payload)
}

func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
