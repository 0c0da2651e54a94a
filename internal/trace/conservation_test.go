package trace_test

import (
	"fmt"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/verify"
)

// TestTraceLockConservation builds with every algorithm at p=8 with
// tracing enabled and demands the trace be a faithful witness of the
// builders' own lock counters: exactly one recorded lock event per
// counted lock, processor by processor, cross-checked again by
// internal/verify's conservation audit. Run under -race (make race) this
// doubles as the data-race gate for the emit path: eight goroutines
// recording into the shared recorder while the fork/join edges publish
// the enabled flag.
func TestTraceLockConservation(t *testing.T) {
	const (
		p = 8
		n = 4096
	)
	bodies := phys.Generate(phys.ModelPlummer, n, 1998)
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			rec := trace.New(p)
			rec.SetEnabled(true)
			bld := core.New(alg, core.Config{P: p, LeafCap: 8, Trace: rec})
			in := &core.Input{Bodies: bodies.Clone(), Assign: core.EvenAssign(n, p)}
			// Two steps so UPDATE exercises its incremental repair path
			// (a fresh build, then a repair) under tracing.
			for step := 0; step < 2; step++ {
				in.Step = step
				tree, m := bld.Build(in)
				if m.Trace == nil {
					t.Fatalf("step %d: traced build produced no trace summary", step)
				}
				perProc := m.LocksPerProc()
				if len(m.Trace.PerProc) != len(perProc) {
					t.Fatalf("step %d: trace covers %d procs, metrics %d",
						step, len(m.Trace.PerProc), len(perProc))
				}
				for w, locks := range perProc {
					if got := m.Trace.PerProc[w].LockEvents; got != locks {
						t.Errorf("step %d proc %d: %d lock events recorded, counters say %d",
							step, w, got, locks)
					}
				}
				if got, want := m.Trace.TotalLockEvents(), m.TotalLocks(); got != want {
					t.Errorf("step %d: %d total lock events, counters say %d", step, got, want)
				}
				if err := verify.Build(alg, tree, m, in.Bodies, step); err != nil {
					t.Errorf("step %d: %v", step, err)
				}
				// Insert spans must exist for every processor on a traced
				// parallel build (each worker loaded bodies).
				for w := 0; w < p; w++ {
					if m.Trace.PerProc[w].Spans[trace.PhaseInsert] == 0 {
						t.Errorf("step %d proc %d: no spans recorded", step, w)
					}
				}
			}
		})
	}
}

// TestTraceDisabledLeavesMetricsBare pins the untraced contract: no
// recorder (or a disabled one) must leave Metrics.Trace nil, so result
// consumers can rely on its presence meaning "this build was traced".
func TestTraceDisabledLeavesMetricsBare(t *testing.T) {
	const p = 4
	bodies := phys.Generate(phys.ModelPlummer, 2048, 7)
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)}
	for name, cfg := range map[string]core.Config{
		"no recorder":       {P: p, LeafCap: 8},
		"disabled recorder": {P: p, LeafCap: 8, Trace: trace.New(p)},
	} {
		_, m := core.New(core.LOCAL, cfg).Build(in)
		if m.Trace != nil {
			t.Errorf("%s: Metrics.Trace = %+v, want nil", name, m.Trace)
		}
	}
}

// TestTracePerBuildWindow pins that each traced build re-arms the
// recorder: summaries describe that build alone, not an accumulation.
func TestTracePerBuildWindow(t *testing.T) {
	const p = 4
	bodies := phys.Generate(phys.ModelPlummer, 2048, 7)
	rec := trace.New(p)
	rec.SetEnabled(true)
	bld := core.New(core.ORIG, core.Config{P: p, LeafCap: 8, Trace: rec})
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)}
	var prev int64
	for step := 0; step < 3; step++ {
		in.Step = step
		_, m := bld.Build(in)
		total := m.Trace.TotalLockEvents()
		if total != m.TotalLocks() {
			t.Fatalf("step %d: %d lock events vs %d locks", step, total, m.TotalLocks())
		}
		if step > 0 && total > 2*prev {
			t.Fatalf("step %d: lock events grew from %d to %d — recorder accumulating across builds",
				step, prev, total)
		}
		prev = total
	}
}

// ExampleRecorder documents the emit API end to end.
func ExampleRecorder() {
	rec := trace.New(1)
	rec.SetEnabled(true)
	p := rec.Proc(0)
	p.SpanAt(trace.PhaseInsert, 0, 1000)
	p.Locked()
	p.Locked()
	s := rec.Summarize()
	fmt.Println(s.PerProc[0].PhaseNs[trace.PhaseInsert], s.PerProc[0].Spans[trace.PhaseInsert], s.PerProc[0].LockEvents)
	// Output: 1000 1 2
}
