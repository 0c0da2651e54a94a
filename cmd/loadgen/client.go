// The partreed-facing half of loadgen: one-shot /v1/build requests, the
// full-duplex /v1/session stream client (the same io.Pipe NDJSON shape
// the daemon's own tests use), and the /metrics scraper the report's
// counter deltas come from.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/obs"
	"partree/internal/runner"
	"partree/internal/workload"
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
// context from (seed, id): the request ID the server will honor is a
// pure function of the run's flags, keeping the report byte-stable.
func traceparentFor(seed int64, id int) (rid, header string) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("loadgen|%d|%d", seed, id)))
	rid = hex.EncodeToString(sum[:16])
	return rid, "00-" + rid + "-" + hex.EncodeToString(sum[16:24]) + "-01"
}

// parseServerTiming extracts the dur= values from a Server-Timing
// header ("queue;dur=0.012, build;dur=1.5, ...") as metric→ms.
func parseServerTiming(v string) map[string]float64 {
	out := map[string]float64{}
	for _, part := range strings.Split(v, ",") {
		name, attrs, ok := strings.Cut(strings.TrimSpace(part), ";")
		if !ok {
			continue
		}
		for _, attr := range strings.Split(attrs, ";") {
			if ms, found := strings.CutPrefix(strings.TrimSpace(attr), "dur="); found {
				if f, err := strconv.ParseFloat(ms, 64); err == nil {
					out[name] = f
				}
			}
		}
	}
	return out
}

// sessionWire is the union of the daemon's session stream records.
type sessionWire struct {
	Event     string  `json:"event"`
	Error     string  `json:"error"`
	N         int     `json:"n"`
	Step      int     `json:"step"`
	Mode      string  `json:"mode"`
	Fallback  bool    `json:"fallback"`
	Moved     int64   `json:"moved"`
	Churn     float64 `json:"churn"`
	Steps     int     `json:"steps"`
	Fallbacks int     `json:"fallbacks"`
	Reason    string  `json:"reason"`
	Timing    *struct {
		QueueMs   float64 `json:"queue_ms"`
		BuildMs   float64 `json:"build_ms"`
		MomentsMs float64 `json:"moments_ms"`
		TotalMs   float64 `json:"total_ms"`
	} `json:"timing"`
}

type sessionOpenWire struct {
	Procs         int     `json:"procs"`
	Bodies        int     `json:"bodies"`
	Model         string  `json:"model,omitempty"`
	Seed          int64   `json:"seed"`
	Dt            float64 `json:"dt,omitempty"`
	Adaptive      bool    `json:"adaptive,omitempty"`
	IdleTimeoutMs int64   `json:"idle_timeout_ms,omitempty"`
}

type sessionStepWire struct {
	Pos   [][3]float64 `json:"pos,omitempty"`
	Drift bool         `json:"drift,omitempty"`
	Close bool         `json:"close,omitempty"`
}

// runSession drives one streaming session through cfg.steps timesteps.
// When the scenario regenerates server-side (ServerModel ok), steps are
// cheap {"drift":true} records; otherwise loadgen evolves the bodies
// locally and streams full position arrays — the client-motion path
// that makes evolving and parameterized scenarios reach the daemon.
func runSession(ctx context.Context, cfg config, id int, at time.Duration) arrivalResult {
	res := arrivalResult{ID: id, AtNs: int64(at), Outcome: "failed"}
	seed := cfg.seed + int64(id)
	open := sessionOpenWire{
		Procs: cfg.procs, Bodies: cfg.n, Seed: seed,
		Adaptive: cfg.adaptive, IdleTimeoutMs: cfg.idleMs,
	}
	model, serverSide := cfg.scenario.ServerModel()
	var ev *workload.Evolver
	if serverSide {
		open.Model = model
		open.Dt = 0.01
	} else {
		// The server's own bodies are placeholders; every step overwrites
		// positions with the client's evolving scenario.
		b, err := cfg.scenario.Generate(cfg.n, seed)
		if err != nil {
			return res
		}
		ev = workload.NewEvolver(b, cfg.scenario.StepDt())
	}

	start := time.Now()
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.target(id)+"/v1/session", pr)
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	rid, tp := traceparentFor(cfg.seed, id)
	req.Header.Set("traceparent", tp)
	enc := json.NewEncoder(pw)
	go enc.Encode(open)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return res
	}
	defer resp.Body.Close()
	defer pw.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		rid = got
	}
	res.RequestID = rid
	if resp.StatusCode == http.StatusServiceUnavailable {
		res.Outcome = "rejected"
		res.latency = time.Since(start)
		return res
	}
	if resp.StatusCode != http.StatusOK {
		return res
	}
	dec := json.NewDecoder(resp.Body)
	var r sessionWire
	if err := dec.Decode(&r); err != nil || r.Event != "opened" {
		return res
	}
	for s := 0; s < cfg.steps; s++ {
		var step sessionStepWire
		if serverSide {
			step.Drift = s > 0
		} else {
			if s > 0 {
				ev.Step()
			}
			step.Pos = make([][3]float64, ev.B.N())
			for i, p := range ev.B.Pos {
				step.Pos[i] = [3]float64{p.X, p.Y, p.Z}
			}
		}
		if err := enc.Encode(step); err != nil {
			return res
		}
		if err := dec.Decode(&r); err != nil {
			return res
		}
		if r.Event != "step" {
			// In-stream error (or an early close under drain/eviction).
			res.Closed = r.Reason
			return res
		}
		res.Steps++
		res.Moved += r.Moved
		res.ChurnSum += r.Churn
		if r.Fallback {
			res.Fallbacks++
		}
		if r.Mode == "rebuild" {
			res.Rebuilds++
		}
		if r.Timing != nil {
			res.serverQueueMs += r.Timing.QueueMs
			res.serverBuildMs += r.Timing.BuildMs
			res.stepTotalsMs = append(res.stepTotalsMs, r.Timing.TotalMs)
		}
	}
	if cfg.linger {
		// Hold the lease: no close record. The session ends when the
		// server evicts it (idle timeout), drains, or the run's context
		// expires — whichever comes first. Reading the stream keeps the
		// eviction visible.
		for {
			if err := dec.Decode(&r); err != nil {
				res.Outcome = "ok"
				res.Closed = "ctx"
				res.latency = time.Since(start)
				return res
			}
			if r.Event == "closed" {
				res.Outcome = "ok"
				res.Closed = r.Reason
				res.latency = time.Since(start)
				return res
			}
		}
	}
	if err := enc.Encode(sessionStepWire{Close: true}); err != nil {
		return res
	}
	for {
		if err := dec.Decode(&r); err != nil {
			return res
		}
		if r.Event == "closed" {
			res.Outcome = "ok"
			res.Closed = r.Reason
			res.latency = time.Since(start)
			return res
		}
	}
}

// runBuild posts one /v1/build spec. Seeds vary per arrival so the
// runner's memo cache cannot collapse the load into one build.
func runBuild(ctx context.Context, cfg config, id int, at time.Duration) arrivalResult {
	res := arrivalResult{ID: id, AtNs: int64(at), Outcome: "failed"}
	model, _ := cfg.scenario.ServerModel()
	spec := runner.Spec{
		Backend: runner.Native, Alg: core.SPACE, Procs: cfg.procs,
		Bodies: cfg.n, Steps: 1, Seed: cfg.seed + int64(id),
		Model: model, BuildOnly: true,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return res
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.target(id)+"/v1/build", strings.NewReader(string(body)))
	if err != nil {
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	rid, tp := traceparentFor(cfg.seed, id)
	req.Header.Set("traceparent", tp)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return res
	}
	defer resp.Body.Close()
	res.latency = time.Since(start)
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		rid = got
	}
	res.RequestID = rid
	if st := parseServerTiming(resp.Header.Get("Server-Timing")); len(st) > 0 {
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

// fetchMetrics GETs and parses a target's Prometheus exposition page.
func fetchMetrics(ctx context.Context, url string) (metricsSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return obs.ParseText(resp.Body)
}

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
				if snap, err := fetchMetrics(ctx, url); err == nil {
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
