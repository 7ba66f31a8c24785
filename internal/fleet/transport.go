package fleet

import (
	"context"
	"net/http"
	"time"

	"repro/internal/serve"
)

// HTTPTransport reaches replicas over HTTP with one pooled client:
// connections to every replica stay warm (the fleet re-sends to the
// same handful of hosts forever), and the per-request timeout is the
// front's last-ditch bound — hedging and failover normally act first.
type HTTPTransport struct {
	client *http.Client
}

// NewHTTPTransport returns a transport with the given per-request
// timeout (<=0 means 10s).
func NewHTTPTransport(timeout time.Duration) *HTTPTransport {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &HTTPTransport{client: &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        128,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		},
	}}
}

// Client exposes the underlying pooled client (emfleet's stats loop and
// the watcher reuse it).
func (t *HTTPTransport) Client() *http.Client { return t.client }

// Match implements Transport. It posts a copy of body: net/http may still
// read a request body after Do returns (the RoundTripper contract), and
// the front reuses body once Match has returned a status.
func (t *HTTPTransport) Match(ctx context.Context, url string, body []byte) (int, []byte, error) {
	return serve.PostWire(ctx, t.client, url, append([]byte(nil), body...))
}

// Healthz implements Transport.
func (t *HTTPTransport) Healthz(ctx context.Context, url string) error {
	return serve.FetchHealthz(ctx, t.client, url)
}

// Stats implements Transport.
func (t *HTTPTransport) Stats(ctx context.Context, url string) (serve.Stats, error) {
	return serve.FetchStats(ctx, t.client, url)
}
