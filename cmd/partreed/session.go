// Streaming simulation sessions: POST /v1/session holds one NDJSON
// stream per resident tree. The client's first record opens the session
// (body model, processors, fallback policy); every following record is
// one timestep. The server pins an UPDATE builder into an engine lease,
// keeps the tree resident between records, and answers each step with
// an in-stream result record — update-vs-rebuild mode, churn, depth
// skew, and whether the auto-fallback policy forced a fresh SPACE
// rebuild. Errors and backpressure travel in-stream too: only lease
// exhaustion and drain before the stream opens answer 503.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"partree/internal/adapt"
	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/reqtrace"
	"partree/internal/runner"
)

// sessionOpen is the stream's first client record.
type sessionOpen struct {
	Procs   int `json:"procs"`
	Bodies  int `json:"bodies"`
	LeafCap int `json:"leaf_cap"`
	// Model is any phys scenario model (plummer, uniform, twoclusters,
	// disk, hierarchical); empty selects the daemon's -session-model.
	Model string  `json:"model"`
	Seed  int64   `json:"seed"`
	Dt    float64 `json:"dt"` // drift timestep for {"drift":true} records
	// Check verifies every step's tree against the octree invariants
	// (canonical vs a serial rebuild on fresh steps) before answering.
	Check bool `json:"check"`
	// Adaptive turns on measured-cost adaptive partitioning for this
	// session: each step's traced phase times feed a cost ledger that
	// corrects the next step's costzones cut, and a tuner may retune
	// build knobs mid-session. The daemon's -adaptive flag turns it on
	// for every session.
	Adaptive      bool  `json:"adaptive"`
	IdleTimeoutMs int64 `json:"idle_timeout_ms"`
	Policy        struct {
		MaxChurnFrac float64 `json:"max_churn_frac"`
		MaxDepthSkew float64 `json:"max_depth_skew"`
		Streak       int     `json:"streak"`
		MinSteps     int     `json:"min_steps"`
	} `json:"policy"`
}

// sessionStep is one client timestep record. Exactly one body mutation
// (pos, drift, collapse) is typical but none is required: an empty
// record re-times the tree over unchanged bodies.
type sessionStep struct {
	// Pos overwrites every body position (length must equal the
	// session's body count) — the client drives the motion.
	Pos [][3]float64 `json:"pos,omitempty"`
	// Drift advances positions by the session dt along current
	// velocities — cheap server-side evolution.
	Drift bool `json:"drift,omitempty"`
	// Collapse pulls bodies toward the origin with a free-fall-like
	// profile (outer shells fall faster): r ← r/(1+c·|r|). A synthetic
	// high-churn workload for exercising the fallback policy.
	Collapse float64 `json:"collapse,omitempty"`
	// Rebuild forces a fresh SPACE rebuild this step.
	Rebuild bool `json:"rebuild,omitempty"`
	// Close ends the session after acknowledging.
	Close bool `json:"close,omitempty"`
}

// Server→client records. Every stream line carries "event".
type sessionOpened struct {
	Event   string `json:"event"` // "opened"
	N       int    `json:"n"`
	Procs   int    `json:"procs"`
	LeafCap int    `json:"leaf_cap"`
	IdleMs  int64  `json:"idle_ms"`
}

type sessionStepResult struct {
	Event string `json:"event"` // "step"
	Step  int    `json:"step"`
	// Mode is "update" (incremental repair) or "rebuild" (fresh build).
	Mode string `json:"mode"`
	// Reason names why a rebuild step started fresh ("" on updates).
	Reason string `json:"reason,omitempty"`
	// Fallback marks a rebuild forced by the auto-fallback policy.
	Fallback bool `json:"fallback,omitempty"`
	// Retuned marks a rebuild caused by the adaptive tuner changing a
	// build knob (adaptive sessions only).
	Retuned   bool    `json:"retuned,omitempty"`
	Moved     int64   `json:"moved"`
	Churn     float64 `json:"churn"`
	DepthSkew float64 `json:"depth_skew"`
	Locks     int64   `json:"locks"`
	BuildNs   int64   `json:"build_ns"`
	Verified  bool    `json:"verified,omitempty"`
	// Timing is this step's station breakdown — the in-stream
	// equivalent of /v1/build's Server-Timing header.
	Timing *stepTiming `json:"timing,omitempty"`
}

// stepTiming is one step's latency breakdown in fractional
// milliseconds: build-slot queue wait, tree build (bounds+insert),
// moments pass, and total wall time as the handler saw it.
type stepTiming struct {
	QueueMs   float64 `json:"queue_ms"`
	BuildMs   float64 `json:"build_ms"`
	MomentsMs float64 `json:"moments_ms"`
	TotalMs   float64 `json:"total_ms"`
}

type sessionClosed struct {
	Event     string `json:"event"` // "closed"
	Steps     int    `json:"steps"`
	Fallbacks int    `json:"fallbacks"`
	Reason    string `json:"reason,omitempty"`
}

type sessionError struct {
	Event string `json:"event"` // "error"
	Error string `json:"error"`
}

func (o *sessionOpen) validate() (phys.Model, error) {
	// A streamed request must not be able to allocate unbounded server
	// memory: the open record is held to the one-shot specs' limits.
	if o.Bodies <= 0 || o.Bodies > runner.MaxServiceBodies {
		return 0, fmt.Errorf("bodies must be in 1..%d, got %d", runner.MaxServiceBodies, o.Bodies)
	}
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Procs > runner.MaxServiceProcsPerCPU*runtime.GOMAXPROCS(0) {
		return 0, fmt.Errorf("procs %d exceeds %dx GOMAXPROCS", o.Procs, runner.MaxServiceProcsPerCPU)
	}
	if o.LeafCap <= 0 {
		o.LeafCap = 8
	}
	if o.Dt == 0 {
		o.Dt = 0.01
	}
	model, ok := phys.ParseModel(o.Model)
	if !ok {
		return 0, fmt.Errorf("unknown model %q", o.Model)
	}
	return model, nil
}

// handleSession serves one streaming session (NDJSON both ways over one
// HTTP/1.1 exchange; EnableFullDuplex lets responses interleave with
// request-body reads).
func (d *daemon) handleSession(w http.ResponseWriter, req *http.Request) {
	// A pre-stream rejection must close the connection: the client is
	// still streaming its request body, and the server's usual
	// keep-alive body drain would deadlock against a client that waits
	// for the response before closing its side.
	reject := func(code int, msg string) {
		w.Header().Set("Connection", "close")
		reqtrace.WriteError(w, code, msg)
	}
	if req.Method != http.MethodPost {
		reject(http.StatusMethodNotAllowed, "POST an NDJSON session stream")
		return
	}
	if d.draining.Load() {
		reject(http.StatusServiceUnavailable, engine.ErrDraining.Error())
		return
	}
	dec := json.NewDecoder(req.Body)
	var open sessionOpen
	if err := dec.Decode(&open); err != nil {
		reject(http.StatusBadRequest, fmt.Sprintf("parsing open record: %v", err))
		return
	}
	if open.Model == "" {
		open.Model = d.cfg.sessionModel
	}
	model, err := open.validate()
	if err != nil {
		reject(http.StatusBadRequest, err.Error())
		return
	}

	bodies := phys.Generate(model, open.Bodies, open.Seed)
	cfg := core.Config{P: open.Procs, LeafCap: open.LeafCap}
	policy := core.FallbackPolicy{
		MaxChurnFrac: open.Policy.MaxChurnFrac,
		MaxDepthSkew: open.Policy.MaxDepthSkew,
		Streak:       open.Policy.Streak,
		MinSteps:     open.Policy.MinSteps,
	}
	var st *core.Stepper
	if open.Adaptive || d.cfg.adaptive {
		st = core.NewAdaptiveStepper(cfg, bodies, policy,
			adapt.NewController(cfg, adapt.Options{}))
	} else {
		st = core.NewStepper(cfg, bodies, policy)
	}
	lease, err := d.eng.OpenLease(st, time.Duration(open.IdleTimeoutMs)*time.Millisecond)
	if err != nil {
		// The only post-validation errors before the stream opens: lease
		// capacity and drain. Both are 503 — the backpressure contract.
		reject(http.StatusServiceUnavailable, err.Error())
		return
	}
	defer lease.Close()
	// The request's span handle (nil when tracing is disabled): each
	// step's slot wait and build land on it via lease.Step, and the
	// whole stream finishes as one flight-recorder entry.
	rq := reqtrace.FromContext(req.Context())

	// From here on every outcome is an in-stream record on a 200.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(v any) {
		enc.Encode(v)
		rc.Flush()
	}
	idle := time.Duration(open.IdleTimeoutMs) * time.Millisecond
	if idle <= 0 {
		idle = d.cfg.sessionIdle
	}
	emit(sessionOpened{Event: "opened", N: bodies.N(), Procs: open.Procs,
		LeafCap: open.LeafCap, IdleMs: idle.Milliseconds()})

	// Reader goroutine: the handler must keep serving lease-side events
	// (idle eviction, drain) while no client record is in flight, so the
	// blocking Decode lives on its own goroutine. It exits on stream end
	// or when the handler returns (the server closes req.Body).
	type stepOrErr struct {
		step sessionStep
		err  error
	}
	records := make(chan stepOrErr)
	go func() {
		defer close(records)
		for {
			var s sessionStep
			err := dec.Decode(&s)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					select {
					case records <- stepOrErr{err: err}:
					case <-lease.Done():
					}
				}
				return
			}
			select {
			case records <- stepOrErr{step: s}:
			case <-lease.Done():
				return
			}
		}
	}()

	steps, fallbacks := 0, 0
	for {
		select {
		case rec, ok := <-records:
			if !ok {
				// Client closed its side (EOF): acknowledge and finish.
				emit(sessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: "eof"})
				return
			}
			if rec.err != nil {
				emit(sessionError{Event: "error", Error: fmt.Sprintf("parsing step record: %v", rec.err)})
				return
			}
			s := rec.step
			if s.Close {
				// Release the lease before acknowledging: a client that
				// has read "closed" must find the lease gone and counted.
				lease.Close()
				emit(sessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: "close"})
				return
			}
			if s.Pos != nil && len(s.Pos) != bodies.N() {
				emit(sessionError{Event: "error",
					Error: fmt.Sprintf("pos has %d entries, session has %d bodies", len(s.Pos), bodies.N())})
				return
			}
			applyStepMutation(bodies, s, open.Dt)
			// Queue wait is measured as the request-level accumulator's
			// delta across the step (the engine stamps slot waits onto
			// the span context); zero when tracing is disabled.
			q0, _, _, _ := rq.Breakdown()
			stepStart := time.Now()
			res, err := lease.Step(req.Context(), core.StepInput{Rebuild: s.Rebuild})
			stepWall := time.Since(stepStart)
			if err != nil {
				emit(sessionError{Event: "error", Error: err.Error()})
				return
			}
			q1, _, _, _ := rq.Breakdown()
			t := res.Metrics.Timing
			out := sessionStepResult{
				Event:     "step",
				Step:      res.Step,
				Mode:      "update",
				Reason:    res.Reason,
				Fallback:  res.Fallback,
				Retuned:   res.Retuned,
				Moved:     res.Metrics.TotalBodiesMoved(),
				Churn:     res.ChurnFrac,
				DepthSkew: res.DepthSkew,
				Locks:     res.Metrics.TotalLocks(),
				BuildNs:   res.Metrics.Timing.Total().Nanoseconds(),
				Timing: &stepTiming{
					QueueMs:   durMs(q1 - q0),
					BuildMs:   durMs(t.Bounds + t.Insert),
					MomentsMs: durMs(t.Moments),
					TotalMs:   durMs(stepWall),
				},
			}
			if res.Fresh {
				out.Mode = "rebuild"
			}
			if res.Fallback {
				fallbacks++
			}
			if open.Check {
				data := octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}
				if err := octree.Check(res.Tree, data,
					octree.CheckOptions{Canonical: res.Fresh, Moments: true, Tol: 1e-9}); err != nil {
					emit(sessionError{Event: "error", Error: fmt.Sprintf("step %d verification: %v", res.Step, err)})
					return
				}
				out.Verified = true
			}
			steps++
			emit(out)

		case <-lease.Done():
			// The server side ended the lease under us: idle eviction or
			// drain. The current step (if any) already finished — the
			// engine closes leases only between steps.
			reason := "draining"
			if lease.Evicted() {
				reason = "idle timeout"
			}
			emit(sessionError{Event: "error", Error: "session closed: " + reason})
			emit(sessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: reason})
			slog.Debug("session ended by server", "reason", reason, "steps", steps)
			return

		case <-req.Context().Done():
			return
		}
	}
}

// applyStepMutation applies a step record's body motion in place.
func applyStepMutation(b *phys.Bodies, s sessionStep, dt float64) {
	if s.Pos != nil {
		for i, p := range s.Pos {
			b.Pos[i].X, b.Pos[i].Y, b.Pos[i].Z = p[0], p[1], p[2]
		}
	}
	if s.Drift {
		b.Drift(0, b.N(), dt)
	}
	if c := s.Collapse; c > 0 {
		for i := range b.Pos {
			r := b.Pos[i].Len()
			b.Pos[i] = b.Pos[i].Scale(1 / (1 + c*r))
		}
	}
}
