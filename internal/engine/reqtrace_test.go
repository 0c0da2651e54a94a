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
// own accounting on the request handle, exactly — the phase accumulators
// equal the summed core.Metrics.Timing.
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

	var wantBounds, wantInsert, wantMoments time.Duration
	for i := 0; i < steps; i++ {
		if i > 0 {
			l.Stepper().Bodies().Drift(0, n, 0.01)
		}
		res, err := l.Step(ctx, core.StepInput{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		tm := res.Metrics.Timing
		wantBounds += tm.Bounds
		wantInsert += tm.Insert
		wantMoments += tm.Moments
	}

	ph := rq.Entry().Phases
	if ph.BoundsNs != wantBounds.Nanoseconds() ||
		ph.InsertNs != wantInsert.Nanoseconds() ||
		ph.MomentsNs != wantMoments.Nanoseconds() {
		t.Errorf("request phases = %+v, want exact sums bounds=%d insert=%d moments=%d",
			ph, wantBounds.Nanoseconds(), wantInsert.Nanoseconds(), wantMoments.Nanoseconds())
	}

	// One "build" wall span per step, and the breakdown's build total is
	// the phase view (bounds+insert), consistent with what it reported.
	var builds int
	for _, s := range rq.Entry().Spans {
		if s.Name == "build" {
			builds++
		}
	}
	if builds != steps {
		t.Errorf("%d build wall spans, want one per step (%d)", builds, steps)
	}
	queue, build, moments, _ := rq.Breakdown()
	if build != wantBounds+wantInsert || moments != wantMoments {
		t.Errorf("breakdown (build=%v moments=%v) disagrees with summed timings (%v, %v)",
			build, moments, wantBounds+wantInsert, wantMoments)
	}
	if queue != 0 {
		t.Errorf("queue = %v on an uncontended engine, want 0", queue)
	}
}

// TestQueueWaitStampedOnRequest occupies the engine's only build slot
// and checks both waiting paths — a queued Acquire and a lease Step —
// stamp a "queue" span onto the request context covering the wait.
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
	if q, _, _, _ := rq.Breakdown(); q < hold/2 {
		t.Errorf("queued Acquire stamped %v of queue wait, want ~%v", q, hold)
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
	if q, _, _, _ := rq2.Breakdown(); q < hold/2 {
		t.Errorf("waiting Step stamped %v of queue wait, want ~%v", q, hold)
	}
}
