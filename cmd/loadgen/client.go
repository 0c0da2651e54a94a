// The partreed-facing half of loadgen: one-shot /v1/build requests,
// /v1/session streams driven through internal/wire's stream client, and
// the /metrics scraper the report's counter deltas come from.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/obs"
	"partree/internal/runner"
	"partree/internal/wire"
)

// arrivalResult is what one scheduled arrival produced. Outcome is one
// of ok, rejected (admission 503), failed (anything else went wrong),
// or unlaunched (the run timeout expired first). The server-reported
// fields are deterministic for non-adaptive runs; latency is measured
// and stays out of the report.
type arrivalResult struct {
	ID      int    `json:"id"`
	AtNs    int64  `json:"at_ns"`
	Outcome string `json:"outcome"`
	// RequestID is the server's X-Request-Id for this arrival. loadgen
	// mints a deterministic traceparent per (seed, arrival), so the
	// honored ID is a pure function of the flags — byte-stable in the
	// report, and a direct key into the daemon's /debug/requests.
	RequestID string `json:"request_id,omitempty"`
	// Session aggregates (session mode, ok outcomes).
	Steps     int     `json:"steps,omitempty"`
	Fallbacks int     `json:"fallbacks,omitempty"`
	Rebuilds  int     `json:"rebuilds,omitempty"`
	Moved     int64   `json:"moved,omitempty"`
	ChurnSum  float64 `json:"churn_sum,omitempty"`
	Closed    string  `json:"closed,omitempty"`

	latency time.Duration
	// Measured server-side breakdowns (never in the report): the
	// Server-Timing header's queue/build milliseconds for builds, the
	// summed per-step "timing" records for sessions, and each step's
	// total for the p99-step pointer.
	serverQueueMs float64
	serverBuildMs float64
	stepTotalsMs  []float64
}

// traceparentFor deterministically derives this arrival's trace
// context from (seed, id): the request ID the server will honor (every
// serving binary answers it as X-Request-Id) is a pure function of the
// run's flags, keeping the report byte-stable.
func traceparentFor(seed int64, id int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("loadgen|%d|%d", seed, id)))
	return "00-" + hex.EncodeToString(sum[:16]) + "-" + hex.EncodeToString(sum[16:24]) + "-01"
}

// runSession drives one streaming session through cfg.steps timesteps:
// the daemon generates the model's bodies, and every step after the
// first is a {"drift":true} record that moves them server-side.
func runSession(ctx context.Context, cfg config, id int, at time.Duration) arrivalResult {
	res := arrivalResult{ID: id, AtNs: int64(at), Outcome: "failed"}
	open := wire.SessionOpen{
		Procs: cfg.procs, Bodies: cfg.n, Seed: cfg.seed + int64(id),
		Model: cfg.model.String(), Dt: 0.01,
		Adaptive: cfg.adaptive, IdleTimeoutMs: cfg.idleMs,
	}

	start := time.Now()
	sess, err := wire.OpenSession(ctx, cfg.url, traceparentFor(cfg.seed, id), open)
	if err != nil {
		return res
	}
	defer sess.Close()
	res.RequestID = sess.RequestID
	if sess.Status == http.StatusServiceUnavailable {
		res.Outcome = "rejected"
		res.latency = time.Since(start)
		return res
	}
	if sess.Status != http.StatusOK {
		return res
	}
	r, err := sess.Recv()
	if err != nil || r.Event != "opened" {
		return res
	}
	for s := 0; s < cfg.steps; s++ {
		if err := sess.Send(wire.SessionStep{Drift: s > 0}); err != nil {
			return res
		}
		if r, err = sess.Recv(); err != nil {
			return res
		}
		if r.Event != "step" {
			// In-stream error (or an early close under drain/eviction).
			res.Closed = r.Closed.Reason
			return res
		}
		res.Steps++
		res.Moved += r.Step.Moved
		res.ChurnSum += r.Step.Churn
		if r.Step.Fallback {
			res.Fallbacks++
		}
		if r.Step.Mode == "rebuild" {
			res.Rebuilds++
		}
		if r.Step.Timing != nil {
			res.serverQueueMs += r.Step.Timing.QueueMs
			res.serverBuildMs += r.Step.Timing.BuildMs
			res.stepTotalsMs = append(res.stepTotalsMs, r.Step.Timing.TotalMs)
		}
	}
	// A lingering session holds its lease: no close record. It ends when
	// the server evicts it (idle timeout), drains, or the run's context
	// expires — whichever comes first; reading the stream keeps the
	// eviction visible.
	if !cfg.linger {
		if err := sess.Send(wire.SessionStep{Close: true}); err != nil {
			return res
		}
	}
	for res.Closed == "" {
		switch r, err = sess.Recv(); {
		case err != nil && !cfg.linger:
			return res
		case err != nil:
			res.Closed = "ctx"
		case r.Event == "closed":
			res.Closed = r.Closed.Reason
		}
	}
	res.Outcome = "ok"
	res.latency = time.Since(start)
	return res
}

// runBuild posts one /v1/build spec. Seeds vary per arrival so the
// runner's memo cache cannot collapse the load into one build.
func runBuild(ctx context.Context, cfg config, id int, at time.Duration) arrivalResult {
	res := arrivalResult{ID: id, AtNs: int64(at), Outcome: "failed"}
	spec := runner.Spec{
		Backend: runner.Native, Alg: core.SPACE, Procs: cfg.procs,
		Bodies: cfg.n, Steps: 1, Seed: cfg.seed + int64(id),
		Model: cfg.model.String(), BuildOnly: true,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return res
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.url+"/v1/build", strings.NewReader(string(body)))
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparentFor(cfg.seed, id))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return res
	}
	defer resp.Body.Close()
	res.latency = time.Since(start)
	res.RequestID = resp.Header.Get("X-Request-Id")
	if st := wire.ParseServerTiming(resp.Header.Get("Server-Timing")); len(st) > 0 {
		res.serverQueueMs = st["queue"]
		res.serverBuildMs = st["build"]
	}
	switch resp.StatusCode {
	case http.StatusOK:
		var out runner.Result
		if json.NewDecoder(resp.Body).Decode(&out) == nil && !out.Failed() {
			res.Outcome = "ok"
		}
	case http.StatusServiceUnavailable:
		res.Outcome = "rejected"
	}
	io.Copy(io.Discard, resp.Body)
	return res
}

// metricsSnapshot is a flat view of one /metrics scrape: series name
// (with its label set, verbatim) → value.
type metricsSnapshot map[string]float64

// sum adds every series whose name starts with prefix (covers labeled
// families like partree_engine_rejected_total{reason=...}).
func (m metricsSnapshot) sum(prefix string) float64 {
	var t float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			t += v
		}
	}
	return t
}

// queueSampler scrapes partree_engine_queue_depth on a short cadence
// for the measured timings output.
type queueSampler struct {
	done    chan struct{}
	samples chan []float64
}

func startQueueSampler(ctx context.Context, url string) *queueSampler {
	s := &queueSampler{done: make(chan struct{}), samples: make(chan []float64, 1)}
	go func() {
		var out []float64
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				s.samples <- out
				return
			case <-ctx.Done():
				s.samples <- out
				return
			case <-tick.C:
				if snap, err := obs.Scrape(ctx, url); err == nil {
					out = append(out, snap["partree_engine_queue_depth"])
				}
			}
		}
	}()
	return s
}

func (s *queueSampler) stop() []float64 {
	close(s.done)
	return <-s.samples
}
