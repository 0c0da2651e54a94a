package trace_test

import (
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/trace"
)

// overheadN/overheadP shape the workload after the repo-root
// BenchmarkNativeTreeBuild, scaled to n=10k so a full sample set stays
// under a second.
const (
	overheadN = 10000
	overheadP = 4
)

func overheadInput(p int) (*core.Input, core.Config) {
	bodies := phys.Generate(phys.ModelPlummer, overheadN, 1998)
	in := &core.Input{Bodies: bodies, Assign: core.SpatialAssign(bodies, p)}
	return in, core.Config{P: p, LeafCap: 8}
}

// disabledHooks is every emit hook a builder calls per body or phase.
func disabledHooks(p *trace.P) {
	start := p.Now()
	p.Span(trace.PhaseInsert, start)
	p.SpanAt(trace.PhaseInsert, start, start+1)
	p.Locked()
}

// TestDisabledTracingOverhead holds the disabled tracing path to what it
// structurally promises — one pointer/flag check per hook — rather than
// to a wall-clock ratio: builds through a never-enabled recorder record
// no span or lock event, and no hook on a nil or a
// disabled handle allocates. The Benchmark* functions below time the
// three states (make microbench).
func TestDisabledTracingOverhead(t *testing.T) {
	in, cfg := overheadInput(overheadP)
	rec := trace.New(overheadP)
	cfg.Trace = rec // never enabled: the disabled no-op path under test
	// ORIG takes the lock-instrumented path on every body, so it reaches
	// the most emit hooks per build of the five algorithms.
	bld := core.New(core.ORIG, cfg)
	for i := 0; i < 3; i++ {
		in.Step = i
		bld.Build(in)
	}
	sum := rec.Summarize()
	for w, pp := range sum.PerProc {
		if pp != (trace.ProcSummary{}) {
			t.Errorf("disabled recorder captured on processor %d: %+v", w, pp)
		}
	}
	for name, p := range map[string]*trace.P{"nil": nil, "disabled": rec.Proc(0)} {
		if n := testing.AllocsPerRun(100, func() { disabledHooks(p) }); n != 0 {
			t.Errorf("%s handle: the emit hooks allocate %v times, want 0", name, n)
		}
	}
}

// Companion benchmarks for manual inspection of all three states:
//
//	go test ./internal/trace -run=NONE -bench=Build -benchtime=20x
func benchBuild(b *testing.B, cfg core.Config) {
	in, _ := overheadInput(cfg.P)
	bld := core.New(core.ORIG, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Step = i
		bld.Build(in)
	}
}

func BenchmarkBuildNoRecorder(b *testing.B) {
	benchBuild(b, core.Config{P: overheadP, LeafCap: 8})
}

func BenchmarkBuildTracingDisabled(b *testing.B) {
	benchBuild(b, core.Config{P: overheadP, LeafCap: 8, Trace: trace.New(overheadP)})
}

func BenchmarkBuildTracingEnabled(b *testing.B) {
	rec := trace.New(overheadP)
	rec.SetEnabled(true)
	benchBuild(b, core.Config{P: overheadP, LeafCap: 8, Trace: rec})
}
