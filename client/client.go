package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Client is an HTTP client for an ascd daemon (or an ascgw gateway — the
// wire surface is identical). Build it with New and configure it with
// options.
//
// # Legacy compatibility
//
// The two exported fields below predate the options constructor and are
// the client's entire deprecated surface — it is frozen at these two, and
// `make apicheck` fails if another Deprecated field or symbol appears.
// Both keep working forever under the v1 contract: New stores its baseURL
// argument in BaseURL, and WithHTTPClient stores into HTTPClient, so
// pre-options code that reads or mutates the fields observes exactly the
// historical behavior.
type Client struct {
	// BaseURL is the daemon address, e.g. "http://localhost:8642".
	//
	// Deprecated: pass the address to New instead of mutating the field.
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	//
	// Deprecated: use WithHTTPClient.
	HTTPClient *http.Client

	timeout time.Duration
	retry   RetryPolicy
}

// Option configures a Client built by New.
type Option func(*Client)

// WithHTTPClient uses hc for transport instead of http.DefaultClient
// (custom TLS, proxies, connection pools).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.HTTPClient = hc }
}

// WithTimeout bounds each HTTP attempt's wall-clock time. It layers under
// any per-call context deadline (whichever ends first wins) and applies
// per attempt, so a retried call gets a fresh budget. Zero means no
// client-side limit beyond the context.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// RetryPolicy shapes automatic retries of temporary failures (HTTP 429
// and 503 — the daemon's backpressure and drain signals). Attempts beyond
// the first wait an exponentially growing, jittered delay, never less
// than the server's Retry-After hint, and always respect the call context.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (<= 1 disables retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms); attempt n
	// waits up to BaseDelay << (n-1), jittered uniformly over the upper
	// half of that interval.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 5s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// WithRetry retries temporary failures (429 queue-full, 503 draining)
// with exponential backoff and jitter, honoring the server's Retry-After
// hint. The zero policy disables retries (the default).
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New returns a client for the daemon at baseURL, configured by opts.
// With no options it behaves exactly like the historical constructor:
// default transport, no client-side timeout, no retries.
func New(baseURL string, opts ...Option) *Client {
	c := &Client{BaseURL: strings.TrimRight(baseURL, "/")}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// backoff returns the wait before retry attempt (1-based count of
// failures so far), raising it to the server's Retry-After hint when that
// is longer.
func (p RetryPolicy) backoff(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 { // <= 0: shift overflow
		d = p.MaxDelay
	}
	// Jitter over [d/2, d) so synchronized clients spread out.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// newCallIdentity mints the correlation identity for one logical call: an
// X-Request-Id and a W3C traceparent sharing the same 8 random bytes (the
// request id doubles as the client's span id). do mints it once and resends
// it verbatim on every retry attempt, so server-side logs, traces, and
// dedup all see one id per job no matter how many attempts it took to land.
// The traceparent flags are 00: the client proposes the trace identity but
// leaves the keep decision to the serving tiers' deterministic head sampler.
func newCallIdentity() (id, traceparent string) {
	var b [24]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Matches the server-side fallback: a constant id degrades
		// correlation, nothing else.
		return "0000000000000000", ""
	}
	id = hex.EncodeToString(b[:8])
	return id, "00-" + hex.EncodeToString(b[8:24]) + "-" + id + "-00"
}

// do issues one request with retries and decodes the JSON response into
// out, converting non-2xx statuses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var buf []byte
	if body != nil {
		var err error
		if buf, err = wire.Marshal(body); err != nil {
			return err
		}
	}
	id, tp := newCallIdentity()
	policy := c.retry.withDefaults()
	for attempt := 1; ; attempt++ {
		err := c.doOnce(ctx, method, path, id, tp, buf, out)
		var ae *APIError
		if err == nil || attempt >= policy.MaxAttempts ||
			!errors.As(err, &ae) || !ae.Temporary() {
			return err
		}
		if ae.Envelope != nil {
			// A 503 carrying a snapshot envelope is the drain handshake,
			// not backpressure: the job already ran partway and must be
			// resumed from the envelope, never resubmitted from scratch.
			return err
		}
		t := time.NewTimer(policy.backoff(attempt, ae.RetryAfter))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// doOnce is a single HTTP attempt carrying the call's fixed identity.
func (c *Client) doOnce(ctx context.Context, method, path, id, tp string, body []byte, out any) error {
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// The client always wants the JSON views; /metrics defaults to
	// Prometheus text exposition without this.
	req.Header.Set("Accept", "application/json")
	req.Header.Set("X-Request-Id", id)
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Neither decoder keeps a reference into the bytes it decodes, so the
	// body is free once doOnce returns.
	raw, err := wire.ReadBody(resp.Body, resp.ContentLength, 64<<20)
	if err != nil {
		return err
	}
	defer raw.Release()
	data := raw.Bytes()
	if resp.StatusCode/100 != 2 {
		ae := &APIError{
			Status:     resp.StatusCode,
			RequestID:  resp.Header.Get("X-Request-Id"),
			RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
		}
		// One decode reads both the error text and, for the drain
		// handshake (a 503 answered to an in-flight resumable session),
		// the snapshot envelope. A mistyped envelope is dropped; the error
		// text, which encoding/json still decodes past it, stays.
		var sd SessionDraining
		if wire.Unmarshal(data, &sd) != nil {
			sd.Envelope = nil
		}
		ae.Message = sd.Error
		if ae.Message == "" {
			ae.Message = strings.TrimSpace(string(data))
		}
		ae.Envelope = sd.Envelope
		return ae
	}
	if out == nil {
		return nil
	}
	if err := wire.Unmarshal(data, out); err != nil {
		return fmt.Errorf("ascd: decoding %s response: %w", path, err)
	}
	return nil
}

// maxRetryAfter caps the honored Retry-After hint. ascd and ascgw derive
// hints from queue depth and never exceed 60s; a larger value (a
// misconfigured proxy, a skewed HTTP-date) must not park a retry loop for
// hours, so anything beyond the cap is clamped rather than trusted.
const maxRetryAfter = 5 * time.Minute

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("3") or HTTP-date ("Fri, 08 Aug 2026 01:02:03 GMT", the
// form classic proxies emit). Malformed values, negative delays, and
// dates in the past yield zero; absurd delays clamp to maxRetryAfter.
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	var d time.Duration
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0
		}
		d = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		// An HTTP-date is an absolute deadline; the delay is whatever is
		// left of it. A past date means "retry now", not "never".
		d = time.Until(t)
		if d < 0 {
			return 0
		}
	} else {
		return 0
	}
	if d > maxRetryAfter {
		return maxRetryAfter
	}
	return d
}

// Run submits a simulation job and blocks until it completes (or ctx ends).
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	var res RunResult
	if err := c.do(ctx, http.MethodPost, "/v1/run", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// RunBatch submits a set of jobs as one POST /v1/batch call and blocks
// until the whole batch resolves (or ctx ends). Job failures are per-job:
// inspect BatchResult.Jobs. A non-nil error means the batch itself was not
// accepted (bad request, backpressure after retries, transport failure).
func (c *Client) RunBatch(ctx context.Context, req BatchRequest) (*BatchResult, error) {
	var res BatchResult
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Healthz checks daemon liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches and decodes the JSON view of the serving counters. The
// daemon's /metrics endpoint defaults to Prometheus text exposition;
// the client negotiates the JSON shape via Accept plus ?format=json.
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.do(ctx, http.MethodGet, "/metrics?format=json", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}
