package engine

import (
	"context"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/reqtrace"
)

// TestLeaseStepStampsRequestContext is the bridge-agreement contract:
// stepping a lease under a request context must reproduce the build's
// own accounting on the request's record, exactly — each phase total
// equals the summed core.Metrics.Timing of the steps.
func TestLeaseStepStampsRequestContext(t *testing.T) {
	const n, p, steps = 1200, 2, 3
	e := New(Options{MaxActive: 1})
	bodies := phys.Generate(phys.ModelPlummer, n, 3)
	l, err := e.OpenLease(core.NewStepper(core.Config{P: p, LeafCap: 8}, bodies, core.FallbackPolicy{}), time.Minute)
	if err != nil {
		t.Fatalf("OpenLease: %v", err)
	}
	defer l.Close()

	rec := reqtrace.NewRecorder()
	rq := rec.Start("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/session")
	ctx := reqtrace.NewContext(context.Background(), rq)

	var want reqtrace.Totals
	for i := 0; i < steps; i++ {
		if i > 0 {
			l.Stepper().Bodies().Drift(0, n, 0.01)
		}
		res, err := l.Step(ctx, core.StepInput{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		tm := res.Metrics.Timing
		want[reqtrace.Bounds] += tm.Bounds.Nanoseconds()
		want[reqtrace.Insert] += tm.Insert.Nanoseconds()
		want[reqtrace.Moments] += tm.Moments.Nanoseconds()
	}

	got, _ := rq.Totals()
	for _, s := range []reqtrace.Station{reqtrace.Bounds, reqtrace.Insert, reqtrace.Moments} {
		if got[s] != want[s] {
			t.Errorf("request %s total = %d ns, want the steps' exact sum %d", s, got[s], want[s])
		}
	}
	if got[reqtrace.Queue] != 0 {
		t.Errorf("queue = %d ns on an uncontended engine, want 0", got[reqtrace.Queue])
	}

	// One build span per step, and the build total is their sum.
	var builds int
	var buildNs int64
	for _, s := range rq.Entry().Spans {
		if s.Name == "build" {
			builds++
			buildNs += s.DurNs
		}
	}
	if builds != steps || buildNs != got[reqtrace.Build] {
		t.Errorf("%d build spans summing to %d ns, want one per step (%d) summing to the build total %d",
			builds, buildNs, steps, got[reqtrace.Build])
	}
}

// TestQueueWaitStampedOnRequest occupies the engine's only build slot
// and checks both waiting paths — a queued Acquire and a lease Step —
// stamp the wait onto the request context's Queue station.
func TestQueueWaitStampedOnRequest(t *testing.T) {
	const hold = 30 * time.Millisecond
	e := New(Options{MaxActive: 1})
	rec := reqtrace.NewRecorder()

	// Path 1: Acquire behind a held session.
	s, err := e.Acquire(context.Background(), Key{Alg: core.LOCAL, P: 1})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	go func() {
		time.Sleep(hold)
		s.Release()
	}()
	rq := rec.Start("00000000000000000000000000000001", "/v1/build")
	ctx := reqtrace.NewContext(context.Background(), rq)
	s2, err := e.Acquire(ctx, Key{Alg: core.LOCAL, P: 1})
	if err != nil {
		t.Fatalf("queued Acquire: %v", err)
	}
	if tot, _ := rq.Totals(); time.Duration(tot[reqtrace.Queue]) < hold/2 {
		t.Errorf("queued Acquire stamped %v of queue wait, want ~%v", time.Duration(tot[reqtrace.Queue]), hold)
	}

	// Path 2: a lease Step waiting on the same slot (s2 still holds it).
	bodies := phys.Generate(phys.ModelPlummer, 300, 7)
	l, err := e.OpenLease(core.NewStepper(core.Config{P: 1, LeafCap: 8}, bodies, core.FallbackPolicy{}), time.Minute)
	if err != nil {
		t.Fatalf("OpenLease: %v", err)
	}
	defer l.Close()
	go func() {
		time.Sleep(hold)
		s2.Release()
	}()
	rq2 := rec.Start("00000000000000000000000000000002", "/v1/session")
	if _, err := l.Step(reqtrace.NewContext(context.Background(), rq2), core.StepInput{}); err != nil {
		t.Fatalf("step: %v", err)
	}
	if tot, _ := rq2.Totals(); time.Duration(tot[reqtrace.Queue]) < hold/2 {
		t.Errorf("waiting Step stamped %v of queue wait, want ~%v", time.Duration(tot[reqtrace.Queue]), hold)
	}
}
