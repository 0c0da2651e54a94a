// Streaming simulation sessions: POST /v1/session holds one NDJSON
// stream per resident tree. The client's first record opens the session
// (body model, processors, leaf capacity); every following record is
// one timestep. The server pins an UPDATE builder into an engine lease,
// keeps the tree resident between records, and answers each step with
// an in-stream result record — update-vs-rebuild mode, churn, and
// whether the session's rebuild rule asked for a fresh SPACE rebuild. Errors and backpressure travel in-stream too: only lease
// exhaustion and drain before the stream opens answer 503.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/phys"
	"partree/internal/reqtrace"
	"partree/internal/vec"
	"partree/internal/verify"
	"partree/internal/wire"
)

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
	if d.draining.Load() {
		reject(http.StatusServiceUnavailable, engine.ErrDraining.Error())
		return
	}
	dec := json.NewDecoder(req.Body)
	open, model, err := wire.DecodeSessionOpen(dec)
	if err != nil {
		reject(http.StatusBadRequest, err.Error())
		return
	}

	bodies := phys.Generate(model, open.Bodies, open.Seed)
	cfg := core.Config{P: open.Procs, LeafCap: open.LeafCap}
	lease, err := d.eng.OpenLease(core.NewStepper(cfg, bodies, core.FallbackPolicy{}), time.Duration(open.IdleTimeoutMs)*time.Millisecond)
	if err != nil {
		// The only post-validation errors before the stream opens: lease
		// capacity and drain. Both are 503 — the backpressure contract.
		reject(http.StatusServiceUnavailable, err.Error())
		return
	}
	defer lease.Close()
	// The request's record: each step's slot wait and build land
	// on it via lease.Step, and the whole stream finishes as one
	// flight-recorder entry.
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
	emit(wire.SessionOpened{Event: "opened", N: bodies.N(), Procs: open.Procs,
		LeafCap: open.LeafCap, IdleMs: lease.Idle().Milliseconds()})

	// Reader goroutine: the handler must keep serving lease-side events
	// (idle eviction, drain) while no client record is in flight, so the
	// blocking Decode lives on its own goroutine. It exits on stream end
	// or when the handler returns (the server closes req.Body).
	type stepOrErr struct {
		step wire.SessionStep
		err  error
	}
	records := make(chan stepOrErr)
	go func() {
		defer close(records)
		for {
			s, err := wire.DecodeSessionStep(dec)
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
				emit(wire.SessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: "eof"})
				return
			}
			if rec.err != nil {
				emit(wire.SessionError{Event: "error", Error: rec.err.Error()})
				return
			}
			s := rec.step
			if s.Close {
				// Release the lease before acknowledging: a client that
				// has read "closed" must find the lease gone and counted.
				lease.Close()
				emit(wire.SessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: "close"})
				return
			}
			if err := applyStepMutation(bodies, s, open.Dt); err != nil {
				emit(wire.SessionError{Event: "error", Error: err.Error()})
				return
			}
			// The step's breakdown is what it added to the request's
			// totals: the engine stamps the slot wait, the lease the
			// build and its phases.
			before, _ := rq.Totals()
			stepStart := time.Now()
			res, err := lease.Step(req.Context(), core.StepInput{Rebuild: s.Rebuild})
			stepWall := time.Since(stepStart)
			if err != nil {
				emit(wire.SessionError{Event: "error", Error: err.Error()})
				return
			}
			after, _ := rq.Totals()
			d := after.Sub(before)
			timing := wire.Timing(d, stepWall)
			out := wire.SessionStepResult{
				Event:    "step",
				Step:     res.Step,
				Mode:     "update",
				Reason:   res.Reason,
				Fallback: res.Fallback,
				Moved:    res.Metrics.TotalBodiesMoved(),
				Churn:    res.ChurnFrac,
				Locks:    res.Metrics.TotalLocks(),
				BuildNs:  d[reqtrace.Bounds] + d[reqtrace.Insert] + d[reqtrace.Moments],
				Timing:   &timing,
			}
			if res.Fresh {
				out.Mode = "rebuild"
			}
			if res.Fallback {
				fallbacks++
			}
			if open.Check {
				if err := verify.Build(res.Metrics.Alg, res.Tree, res.Metrics, bodies, res.Step); err != nil {
					emit(wire.SessionError{Event: "error", Error: fmt.Sprintf("step %d verification: %v", res.Step, err)})
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
			emit(wire.SessionError{Event: "error", Error: "session closed: " + reason})
			emit(wire.SessionClosed{Event: "closed", Steps: steps, Fallbacks: fallbacks, Reason: reason})
			slog.Debug("session ended by server", "reason", reason, "steps", steps)
			return

		case <-req.Context().Done():
			return
		}
	}
}

// applyStepMutation applies a step record's body motion in place: one
// sweep of the slots, each body taking the record's mutations in wire
// order (drift, collapse).
//
// The sweep also bounds what it wrote, and refuses a step whose bodies
// the builders could not size a root cube around — a dt so large that the
// extent or its midpoint overflows: such a build does not terminate, and
// it would hold its engine slot and the lease meanwhile.
func applyStepMutation(b *phys.Bodies, s wire.SessionStep, dt float64) error {
	collapse := s.Collapse > 0
	if !s.Drift && !collapse {
		return nil
	}
	inf := math.Inf(1)
	lo, hi := vec.V3{X: inf, Y: inf, Z: inf}, vec.V3{X: -inf, Y: -inf, Z: -inf}
	for i, p := range b.Pos {
		if s.Drift {
			p = p.MulAdd(dt, b.Vel[i])
		}
		if collapse {
			p = p.Scale(1 / (1 + s.Collapse*p.Len()))
		}
		b.Pos[i] = p
		lo, hi = lo.Min(p), hi.Max(p)
	}
	// Half the float range leaves the builders' root margin room; the
	// negated comparison refuses a NaN extent too.
	if extent := hi.Sub(lo).MaxComponent(); !(extent <= math.MaxFloat64/2) || !lo.Add(hi).IsFinite() {
		return fmt.Errorf("step leaves the bodies' extent non-finite (%v .. %v)", lo, hi)
	}
	return nil
}
