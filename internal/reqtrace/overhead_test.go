package reqtrace_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/reqtrace"
)

// The workload mirrors internal/trace's overhead gate (n=10k, p=4
// Plummer through ORIG) so the two disabled-path budgets are measured
// on the same build.
const (
	overheadN = 10000
	overheadP = 4
)

func overheadInput() (*core.Input, core.Builder) {
	bodies := phys.Generate(phys.ModelPlummer, overheadN, 1998)
	in := &core.Input{Bodies: bodies, Assign: core.SpatialAssign(bodies, overheadP)}
	return in, core.New(core.ORIG, core.Config{P: overheadP, LeafCap: 8})
}

// buildBare times one plain build — the pre-instrumentation baseline.
func buildBare(bld core.Builder, in *core.Input, step int) float64 {
	in.Step = step
	start := time.Now()
	bld.Build(in)
	return float64(time.Since(start).Nanoseconds())
}

// buildHooked times the same build wrapped in the exact disabled-mode
// hook sequence the serving path added (the engine's slot wait, Lease.Step,
// runner.runNativeBuild): context recalls that miss, guarded time
// captures that stay zero, and nil-receiver method calls. This is the
// code a request pays when the flight recorder is off.
func buildHooked(bld core.Builder, in *core.Input, step int) float64 {
	in.Step = step
	ctx := context.Background()
	wall := time.Now()

	rq := reqtrace.FromContext(ctx) // always nil: recorder disabled
	var qstart time.Time
	if rq != nil {
		qstart = time.Now()
	}
	rq.SpanSince("queue", qstart) // zero start: ignored

	start := time.Now()
	_, m := bld.Build(in)
	reqtrace.FromContext(ctx).AddBuild(start, time.Since(start), m)
	return float64(time.Since(wall).Nanoseconds())
}

// TestDisabledReqtraceOverhead is the regression gate for the serving
// path's core promise: with the flight recorder off, a build surrounded
// by every reqtrace hook must cost within 2% of the bare build, because
// each hook reduces to a context-value miss or a nil check. Samples
// interleave the two shapes so frequency scaling and background noise
// hit both sides equally; the comparison uses medians and retries to
// ride out a noisy machine.
func TestDisabledReqtraceOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison: skipped with -short")
	}
	in, bld := overheadInput()

	const (
		rounds    = 21 // interleaved median samples per side
		limit     = 1.02
		attempts  = 3
		warmupPer = 3
	)
	for i := 0; i < warmupPer; i++ {
		buildBare(bld, in, i)
		buildHooked(bld, in, i)
	}
	var last string
	for attempt := 1; attempt <= attempts; attempt++ {
		bareTs := make([]float64, 0, rounds)
		hookedTs := make([]float64, 0, rounds)
		for i := 0; i < rounds; i++ {
			bareTs = append(bareTs, buildBare(bld, in, i))
			hookedTs = append(hookedTs, buildHooked(bld, in, i))
		}
		sort.Float64s(bareTs)
		sort.Float64s(hookedTs)
		ratio := hookedTs[rounds/2] / bareTs[rounds/2]
		if ratio <= limit {
			return
		}
		last = fmt.Sprintf("attempt %d: disabled-reqtrace median %.3fx the bare median (limit %.2fx)",
			attempt, ratio, limit)
		t.Log(last)
	}
	t.Errorf("disabled request tracing exceeds the overhead budget on %d consecutive attempts: %s", attempts, last)
}

// Companion benchmarks for the per-hook costs themselves:
//
//	go test ./internal/reqtrace -run=NONE -bench=. -benchtime=10000x
func BenchmarkDisabledHooks(b *testing.B) {
	ctx := context.Background()
	start := time.Unix(1700000000, 0)
	for i := 0; i < b.N; i++ {
		rq := reqtrace.FromContext(ctx)
		var qstart time.Time
		if rq != nil {
			qstart = time.Now()
		}
		rq.SpanSince("queue", qstart)
		rq.AddBuild(start, 0, nil)
	}
}

// BenchmarkRecordedRequest is one full enabled request lifecycle: start,
// the serving path's four spans plus the phase stamp, finish (ring
// publish, histograms, exemplar).
func BenchmarkRecordedRequest(b *testing.B) {
	rec := reqtrace.NewRecorder(reqtrace.Options{})
	t0 := time.Unix(1700000000, 0)
	m := buildMetrics(time.Millisecond, time.Millisecond, time.Millisecond, nil)
	for i := 0; i < b.N; i++ {
		rq := rec.StartAt("4bf92f3577b34da6a3ce929d0e0e4736", "/v1/build", t0)
		rq.SpanAt("read", t0, t0.Add(time.Millisecond))
		rq.SpanAt("queue", t0, t0.Add(time.Millisecond))
		rq.AddBuild(t0, 10*time.Millisecond, m)
		rq.SpanAt("write", t0, t0.Add(time.Millisecond))
		rq.FinishAt(200, 4096, t0.Add(14*time.Millisecond))
	}
}
