package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"partree/internal/obs"
	"partree/internal/reqtrace"
)

// ClientOptions tune one shard client. The zero value selects the
// defaults below.
type ClientOptions struct {
	// Timeout bounds each attempt (not the whole call); a retried call
	// restarts the clock.
	Timeout time.Duration
	// Retries is how many extra attempts follow a transport failure.
	// HTTP-level errors (4xx/5xx) are answers, not failures, and are
	// never retried: a 503 means the shard chose to reject, and retrying
	// would defeat its admission control.
	Retries int
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 30 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// StatusError is a non-2xx answer from a shard: the status code plus the
// error text from its JSON error document (or raw body). It is a
// deliberate response, carried as an error so callers can branch on the
// code (409 version conflict, 503 admission) without
// string matching.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard answered %d: %s", e.Code, e.Msg)
}

// Client speaks to one shard with per-attempt timeouts and
// transport-only retries.
type Client struct {
	id   string
	base string // http://host:port
	hc   *http.Client
	opts ClientOptions
}

// NewClient builds a client for one shard address.
func NewClient(id, addr string, o ClientOptions) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{id: id, base: strings.TrimSuffix(base, "/"), hc: &http.Client{}, opts: o.withDefaults()}
}

// Call POSTs a JSON document and decodes the JSON answer into out.
// Transport failures are retried up to Retries times with a fresh
// per-attempt timeout; a non-2xx status returns a *StatusError carrying
// the shard's error text.
func (c *Client) Call(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("shard %s: encoding request: %w", c.id, err)
	}
	var last error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("shard %s: %w", c.id, err)
		}
		err := c.attempt(ctx, path, body, out)
		if err == nil {
			return nil
		}
		if errors.As(err, new(*StatusError)) {
			// An HTTP answer means the shard is reachable and chose this
			// response; it is final.
			return err
		}
		last = err
	}
	return fmt.Errorf("shard %s: %w", c.id, last)
}

func (c *Client) attempt(ctx context.Context, path string, body []byte, out any) error {
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// A call made while serving a request (the router's fan-out) carries
	// that request's ID, so the shard's envelope files its side under it.
	if tp := reqtrace.FromContext(ctx).Traceparent(); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return &StatusError{Code: resp.StatusCode, Msg: errorText(resp.Body)}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// errorText extracts the "error" field of a JSON error document, falling
// back to the raw (truncated) body.
func errorText(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &doc) == nil && doc.Error != "" {
		return doc.Error
	}
	return strings.TrimSpace(string(b))
}

// Metrics scrapes the shard's Prometheus exposition page into a flat
// series-line → value view (labels kept verbatim in the key), the form
// the router's rollup collector sums.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	snap, err := obs.Scrape(actx, c.base)
	if err != nil {
		return nil, fmt.Errorf("shard %s: %w", c.id, err)
	}
	return snap, nil
}
