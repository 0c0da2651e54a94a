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

// TestDisabledTracingOverhead holds the disabled path to what it
// structurally promises — one check per build — rather than to a
// wall-clock ratio: builds through a never-enabled recorder carry no
// summary, and asking a nil or a disabled recorder does not allocate.
// The Benchmark* functions below time the three states (make
// microbench).
func TestDisabledTracingOverhead(t *testing.T) {
	in, cfg := overheadInput(overheadP)
	rec := trace.New(overheadP)
	cfg.Trace = rec // never enabled: the disabled path under test
	bld := core.New(core.ORIG, cfg)
	for i := 0; i < 3; i++ {
		in.Step = i
		if _, m := bld.Build(in); m.Trace != nil {
			t.Errorf("build %d: disabled recorder produced a summary", i)
		}
	}
	for name, r := range map[string]*trace.Recorder{"nil": nil, "disabled": rec} {
		if n := testing.AllocsPerRun(100, func() { r.Active() }); n != 0 {
			t.Errorf("%s recorder: Active allocates %v times, want 0", name, n)
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
