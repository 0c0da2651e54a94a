package trace_test

import (
	"fmt"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/trace"
)

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

// TestDisabledRecorderEmitsNothing: a recorder switched off between
// builds stops the summary from the next build on.
func TestDisabledRecorderEmitsNothing(t *testing.T) {
	const p = 2
	bodies := phys.Generate(phys.ModelPlummer, 2048, 7)
	rec := trace.New(p)
	rec.SetEnabled(true)
	bld := core.New(core.SPACE, core.Config{P: p, LeafCap: 8, Trace: rec})
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)}
	if _, m := bld.Build(in); m.Trace == nil {
		t.Fatal("enabled recorder: no summary")
	}
	rec.SetEnabled(false)
	if _, m := bld.Build(in); m.Trace != nil {
		t.Errorf("disabled recorder: Metrics.Trace = %+v, want nil", m.Trace)
	}
}

// TestTracePerBuildWindow pins that each traced build's summary
// describes that build alone: it equals the build's own PerP, and a
// later build leaves an earlier summary as it was.
func TestTracePerBuildWindow(t *testing.T) {
	const p = 4
	bodies := phys.Generate(phys.ModelPlummer, 2048, 7)
	rec := trace.New(p)
	rec.SetEnabled(true)
	bld := core.New(core.ORIG, core.Config{P: p, LeafCap: 8, Trace: rec})
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)}
	var prev *core.Metrics
	var prevInsert int64
	for step := 0; step < 3; step++ {
		in.Step = step
		_, m := bld.Build(in)
		for w := range m.PerP {
			if got, want := m.Trace.PerProc[w].PhaseNs, m.PerP[w].PhaseNs; got != want {
				t.Fatalf("step %d proc %d: summary %v, PerP %v", step, w, got, want)
			}
		}
		if prev != nil && prev.Trace.PerProc[0].PhaseNs[trace.PhaseInsert] != prevInsert {
			t.Fatalf("step %d: the build rewrote step %d's summary", step, step-1)
		}
		prev, prevInsert = m, m.Trace.PerProc[0].PhaseNs[trace.PhaseInsert]
	}
}

// ExampleRecorder documents the recorder end to end: enable it, build,
// and read each processor's phase time off the summary.
func ExampleRecorder() {
	const p = 2
	rec := trace.New(p)
	rec.SetEnabled(true)
	bodies := phys.Generate(phys.ModelPlummer, 1000, 1)
	_, m := core.New(core.SPACE, core.Config{P: p, LeafCap: 8, Trace: rec}).Build(
		&core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)})
	fmt.Println(len(m.Trace.PerProc), m.Trace.PerProc[1].PhaseNs == m.PerP[1].PhaseNs)
	// Output: 2 true
}
