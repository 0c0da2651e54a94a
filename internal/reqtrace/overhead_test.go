package reqtrace_test

import (
	"context"
	"testing"
	"time"

	"partree/internal/reqtrace"
)

// disabledHooks is the hook sequence a build with no request behind it
// runs (the CLI's runner.Run through the engine's slot wait, Lease.Step,
// runner.BuildOnly and the shard client): context recalls that miss,
// guarded time captures that stay zero, and nil-receiver method calls.
func disabledHooks(ctx context.Context, start time.Time) *reqtrace.Req {
	ctx = reqtrace.NewContext(ctx, nil)
	rq := reqtrace.FromContext(ctx)
	var qstart time.Time
	if rq != nil {
		qstart = time.Now()
	}
	rq.Since(reqtrace.Queue, qstart)
	rq.AddBuild(start, 0, nil)
	rq.Stamp(reqtrace.Steps, start, time.Millisecond)
	if tot, elapsed := rq.Totals(); tot != (reqtrace.Totals{}) || elapsed != 0 {
		panic("nil handle reported totals")
	}
	if rq.Traceparent() != "" {
		panic("nil handle rendered a traceparent")
	}
	rq.Finish(200, 0)
	return rq
}

// TestDisabledReqtraceOverhead holds the path of a build with no request
// behind it to what it structurally promises — each hook reduces to a
// context-value miss or a nil check — rather than to a wall-clock ratio:
// nothing is recorded and no hook allocates. BenchmarkDisabledHooks
// times the same sequence (make microbench).
func TestDisabledReqtraceOverhead(t *testing.T) {
	ctx := context.Background()
	start := time.Unix(1700000000, 0)
	if rq := disabledHooks(ctx, start); rq != nil || rq.Entry().Spans != nil {
		t.Fatalf("disabled hooks produced a handle: %+v", rq)
	}
	if n := testing.AllocsPerRun(100, func() { disabledHooks(ctx, start) }); n != 0 {
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
		disabledHooks(ctx, start)
	}
}

// BenchmarkRecordedRequest is one full recorded request lifecycle:
// start, the serving path's four stamps (the build's with its phases),
// finish (ring publish, histograms, exemplar).
func BenchmarkRecordedRequest(b *testing.B) {
	rec := reqtrace.NewRecorder()
	t0 := time.Unix(1700000000, 0)
	m := buildMetrics(time.Millisecond, time.Millisecond, time.Millisecond)
	for i := 0; i < b.N; i++ {
		rq := rec.StartAt("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build", t0)
		rq.Stamp(reqtrace.Read, t0, time.Millisecond)
		rq.Stamp(reqtrace.Queue, t0, time.Millisecond)
		rq.AddBuild(t0, 10*time.Millisecond, m)
		rq.Stamp(reqtrace.Write, t0, time.Millisecond)
		rq.FinishAt(200, 4096, t0.Add(14*time.Millisecond))
	}
}
