package reqtrace_test

import (
	"context"
	"testing"
	"time"

	"partree/internal/reqtrace"
)

// disabledHooks is the hook sequence the serving path runs per request
// with the flight recorder off (the engine's slot wait, Lease.Step,
// runner.BuildOnly, the handlers and the shard client): a Start on the
// nil recorder, context recalls that miss, guarded time captures that
// stay zero, and nil-receiver method calls.
func disabledHooks(ctx context.Context, rec *reqtrace.Recorder, start time.Time) *reqtrace.Req {
	rq := rec.Start("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build")
	ctx = reqtrace.NewContext(ctx, rq)
	rq = reqtrace.FromContext(ctx)
	var qstart time.Time
	if rq != nil {
		qstart = time.Now()
	}
	rq.SpanSince("queue", qstart)
	rq.AddBuild(start, 0, nil)
	rq.Breakdown()
	if rq.Traceparent() != "" {
		panic("nil handle rendered a traceparent")
	}
	rq.Finish(200, 0)
	return rq
}

// TestDisabledReqtraceOverhead holds the disabled serving path to what
// it structurally promises — each hook reduces to a context-value miss
// or a nil check — rather than to a wall-clock ratio: nothing is
// recorded and no hook allocates. BenchmarkDisabledHooks times the same
// sequence (make microbench).
func TestDisabledReqtraceOverhead(t *testing.T) {
	var rec *reqtrace.Recorder
	ctx := context.Background()
	start := time.Unix(1700000000, 0)
	if rq := disabledHooks(ctx, rec, start); rq != nil || rq.Entry().Spans != nil || rq.Entry().Phases != (reqtrace.Phases{}) {
		t.Fatalf("disabled hooks produced a handle: %+v", rq)
	}
	if rec.Snapshot() != nil || rec.InFlight() != 0 || rec.Lookup("4bf92f3577b34da6a3ce929d0e0e4736") != nil {
		t.Error("nil recorder recorded a request")
	}
	if n := testing.AllocsPerRun(100, func() { disabledHooks(ctx, rec, start) }); n != 0 {
		t.Errorf("disabled hooks allocate %v times per request, want 0", n)
	}
}

// Companion benchmarks for the per-hook costs themselves:
//
//	go test ./internal/reqtrace -run=NONE -bench=. -benchtime=10000x
func BenchmarkDisabledHooks(b *testing.B) {
	ctx := context.Background()
	start := time.Unix(1700000000, 0)
	for i := 0; i < b.N; i++ {
		disabledHooks(ctx, nil, start)
	}
}

// BenchmarkRecordedRequest is one full enabled request lifecycle: start,
// the serving path's four spans plus the phase stamp, finish (ring
// publish, histograms, exemplar).
func BenchmarkRecordedRequest(b *testing.B) {
	rec := reqtrace.NewRecorder()
	t0 := time.Unix(1700000000, 0)
	m := buildMetrics(time.Millisecond, time.Millisecond, time.Millisecond)
	for i := 0; i < b.N; i++ {
		rq := rec.StartAt("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build", t0)
		rq.SpanAt("read", t0, t0.Add(time.Millisecond))
		rq.SpanAt("queue", t0, t0.Add(time.Millisecond))
		rq.AddBuild(t0, 10*time.Millisecond, m)
		rq.SpanAt("write", t0, t0.Add(time.Millisecond))
		rq.FinishAt(200, 4096, t0.Add(14*time.Millisecond))
	}
}
