// Report emission. The JSON report carries only data that is a pure
// function of (flags, seed, server determinism): struct field order is
// fixed, encoding/json sorts map keys, and floats render canonically,
// so two identical runs emit identical bytes. Measured quantities
// (latency, queue depth, wall time) go to the timings CSV instead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

type report struct {
	Loadgen  runConfig      `json:"loadgen"`
	Schedule scheduleInfo   `json:"schedule"`
	Outcomes outcomeCounts  `json:"outcomes"`
	Sessions []sessionEntry `json:"sessions,omitempty"`
	// Slow points at the run's tail: the request IDs behind the
	// p99-slowest build / session step. The IDs are deterministic
	// (loadgen mints them), but *which* request was slowest is
	// measured — the one deliberate exception to the byte-stable
	// contract, so determinism comparisons strip lines matching "p99_
	// (loadgen_smoke.sh and the report test both do).
	Slow    *slowPointers `json:"slow,omitempty"`
	Metrics metricsDelta  `json:"metrics_delta"`
}

// slowPointers keys a slow loadgen run straight into the daemon's
// flight recorder: GET /debug/requests/<id> on the serving host.
type slowPointers struct {
	// P99BuildRequestID is the request ID of the p99-slowest ok build
	// by client-observed latency (build mode).
	P99BuildRequestID string `json:"p99_build_request_id,omitempty"`
	// P99StepRequestID/P99Step name the session (request ID) and step
	// index of the p99-slowest step by server-reported total (session
	// mode).
	P99StepRequestID string `json:"p99_step_request_id,omitempty"`
	P99Step          int    `json:"p99_step,omitempty"`
}

type runConfig struct {
	Mode      string  `json:"mode"`
	Scenario  string  `json:"scenario"`
	Arrival   string  `json:"arrival"`
	HorizonNs int64   `json:"horizon_ns"`
	Speedup   float64 `json:"speedup"`
	Bodies    int     `json:"bodies"`
	Procs     int     `json:"procs"`
	Steps     int     `json:"steps"`
	Seed      int64   `json:"seed"`
	Linger    bool    `json:"linger"`
}

type scheduleInfo struct {
	Arrivals int `json:"arrivals"`
	// Digest is scheduleDigest's hash of the schedule — two runs with
	// the same digest fired the same traffic.
	Digest  string `json:"digest"`
	FirstNs int64  `json:"first_ns"`
	LastNs  int64  `json:"last_ns"`
}

type outcomeCounts struct {
	OK         int `json:"ok"`
	Rejected   int `json:"rejected"`
	Failed     int `json:"failed"`
	Unlaunched int `json:"unlaunched"`
}

// sessionEntry is one session's server-reported deterministic
// aggregates, keyed and sorted by arrival ID.
type sessionEntry struct {
	ID        int     `json:"id"`
	AtNs      int64   `json:"at_ns"`
	RequestID string  `json:"request_id,omitempty"`
	Outcome   string  `json:"outcome"`
	Steps     int     `json:"steps"`
	Rebuilds  int     `json:"rebuilds"`
	Fallbacks int     `json:"fallbacks"`
	Moved     int64   `json:"moved"`
	ChurnSum  float64 `json:"churn_sum"`
	Closed    string  `json:"closed,omitempty"`
}

// metricsDelta is the before→after difference of the daemon counters
// the run is accountable for.
type metricsDelta struct {
	EngineRejected   map[string]int64 `json:"engine_rejected"`
	SessionsOpened   int64            `json:"sessions_opened"`
	SessionsClosed   int64            `json:"sessions_closed"`
	SessionsEvicted  int64            `json:"sessions_evicted"`
	SessionsRejected int64            `json:"sessions_rejected"`
	SessionFallbacks int64            `json:"session_fallbacks"`
}

func (o *outcomeCounts) tally(outcome string) {
	switch outcome {
	case "ok":
		o.OK++
	case "rejected":
		o.Rejected++
	case "unlaunched":
		o.Unlaunched++
	default:
		o.Failed++
	}
}

func buildReport(cfg config, schedule []time.Duration,
	results []arrivalResult, before, after metricsSnapshot) report {

	rep := report{
		Loadgen: runConfig{
			Mode: cfg.mode, Scenario: cfg.model.String(), Arrival: cfg.arrival.Name(),
			HorizonNs: int64(cfg.horizon), Speedup: cfg.speedup,
			Bodies: cfg.n, Procs: cfg.procs, Steps: cfg.steps, Seed: cfg.seed,
			Linger: cfg.linger,
		},
		Schedule: scheduleInfo{
			Arrivals: len(schedule),
			Digest:   scheduleDigest(schedule, cfg.mode),
			FirstNs:  int64(schedule[0]),
			LastNs:   int64(schedule[len(schedule)-1]),
		},
	}
	for _, r := range results {
		rep.Outcomes.tally(r.Outcome)
		if cfg.mode == "session" {
			rep.Sessions = append(rep.Sessions, sessionEntry{
				ID: r.ID, AtNs: r.AtNs, RequestID: r.RequestID,
				Outcome: r.Outcome, Steps: r.Steps,
				Rebuilds: r.Rebuilds, Fallbacks: r.Fallbacks,
				Moved: r.Moved, ChurnSum: r.ChurnSum, Closed: r.Closed,
			})
		}
	}
	sort.Slice(rep.Sessions, func(i, j int) bool { return rep.Sessions[i].ID < rep.Sessions[j].ID })
	rep.Slow = slowPointersFor(cfg.mode, results)

	d := func(name string) int64 { return int64(after.sum(name) - before.sum(name)) }
	rep.Metrics = metricsDelta{
		EngineRejected: map[string]int64{
			"cancelled":  d(`partree_engine_rejected_total{reason="cancelled"}`),
			"draining":   d(`partree_engine_rejected_total{reason="draining"}`),
			"queue_full": d(`partree_engine_rejected_total{reason="queue_full"}`),
		},
		SessionsOpened:   d("partree_session_opened_total"),
		SessionsClosed:   d("partree_session_closed_total"),
		SessionsEvicted:  d("partree_session_evicted_total"),
		SessionsRejected: d("partree_session_rejected_total"),
		SessionFallbacks: d("partree_session_fallbacks_total"),
	}
	return rep
}

// scheduleDigest is the SHA-256 of the schedule written one arrival a
// line, {"at_ns":<offset>,"op":"<mode>"}, in order: two runs with the
// same digest fired the same traffic.
func scheduleDigest(schedule []time.Duration, mode string) string {
	h := sha256.New()
	for _, t := range schedule {
		fmt.Fprintf(h, "{\"at_ns\":%d,\"op\":%q}\n", int64(t), mode)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// slowPointersFor finds the p99-slowest ok build (client latency) or
// session step (server-reported total), nearest-rank. Ties break toward
// the lower arrival ID / step index so reruns with equal measurements
// stay stable.
func slowPointersFor(mode string, results []arrivalResult) *slowPointers {
	if mode == "build" {
		type cand struct {
			id  int
			rid string
			lat time.Duration
		}
		var cands []cand
		for _, r := range results {
			if r.Outcome == "ok" && r.RequestID != "" {
				cands = append(cands, cand{r.ID, r.RequestID, r.latency})
			}
		}
		if len(cands) == 0 {
			return nil
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].lat != cands[j].lat {
				return cands[i].lat < cands[j].lat
			}
			return cands[i].id < cands[j].id
		})
		return &slowPointers{P99BuildRequestID: cands[nearestRank(len(cands), 99)].rid}
	}
	type cand struct {
		id   int
		rid  string
		step int
		ms   float64
	}
	var cands []cand
	for _, r := range results {
		if r.Outcome != "ok" || r.RequestID == "" {
			continue
		}
		for i, ms := range r.stepTotalsMs {
			cands = append(cands, cand{r.ID, r.RequestID, i, ms})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].ms != cands[j].ms {
			return cands[i].ms < cands[j].ms
		}
		if cands[i].id != cands[j].id {
			return cands[i].id < cands[j].id
		}
		return cands[i].step < cands[j].step
	})
	c := cands[nearestRank(len(cands), 99)]
	return &slowPointers{P99StepRequestID: c.rid, P99Step: c.step}
}

// nearestRank is the nearest-rank percentile index for n sorted items.
func nearestRank(n int, p float64) int {
	i := int(p/100*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func writeReport(path string, rep report) error {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// writeTimings emits the measured side as metric,value CSV rows.
func writeTimings(path string, results []arrivalResult, depths []float64, wall time.Duration) error {
	lat := sortedLatencies(results)
	var maxDepth, sumDepth float64
	for _, d := range depths {
		sumDepth += d
		if d > maxDepth {
			maxDepth = d
		}
	}
	meanDepth := 0.0
	if len(depths) > 0 {
		meanDepth = sumDepth / float64(len(depths))
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var b []byte
	b = append(b, "metric,value\n"...)
	add := func(k string, v float64) { b = append(b, fmt.Sprintf("%s,%g\n", k, v)...) }
	add("completed", float64(len(lat)))
	add("p50_ms", ms(percentile(lat, 50)))
	add("p95_ms", ms(percentile(lat, 95)))
	add("p99_ms", ms(percentile(lat, 99)))
	if len(lat) > 0 {
		add("max_ms", ms(lat[len(lat)-1]))
	}
	add("queue_depth_max", maxDepth)
	add("queue_depth_mean", meanDepth)
	add("queue_depth_samples", float64(len(depths)))
	add("wall_ms", ms(wall))
	// Server-reported breakdown tails (Server-Timing / per-step timing
	// records): where the time went on the daemon, not on the wire.
	var sq, sb []float64
	for _, r := range results {
		if r.Outcome == "ok" {
			sq = append(sq, r.serverQueueMs)
			sb = append(sb, r.serverBuildMs)
		}
	}
	sort.Float64s(sq)
	sort.Float64s(sb)
	if len(sq) > 0 {
		add("server_queue_ms_p99", sq[nearestRank(len(sq), 99)])
		add("server_build_ms_p99", sb[nearestRank(len(sb), 99)])
	}
	return os.WriteFile(path, b, 0o644)
}
