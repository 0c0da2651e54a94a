package core_test

import (
	"fmt"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/verify"
)

// TestEveryBuildPathRunsThePhaseDriver pins what the one phase driver
// owes every build, whichever algorithm and path produced it: all three
// timed brackets set and summing to no more than the wall time, a trace
// summary (traced builds only) with partition, insert, moments and
// barrier time on every processor that agrees with the lock counters
// (verify's law 6), and exactly one publication into the live
// per-algorithm totals.
func TestEveryBuildPathRunsThePhaseDriver(t *testing.T) {
	const n, p = 3000, 2
	type path struct {
		name    string
		alg     core.Algorithm
		reason  string // expected Metrics.FreshReason on the checked build
		warm    int    // builds (with drift) before the checked one
		rebuild bool
	}
	paths := []path{
		{"ORIG", core.ORIG, "", 0, false},
		{"LOCAL", core.LOCAL, "", 0, false},
		{"PARTREE", core.PARTREE, "", 0, false},
		{"SPACE", core.SPACE, "", 0, false},
		{"UPDATE/first", core.UPDATE, core.FreshFirst, 0, false},
		{"UPDATE/repair", core.UPDATE, "", 1, false},
		{"UPDATE/requested", core.UPDATE, core.FreshRequested, 1, true},
	}
	for _, pt := range paths {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%t", pt.name, traced), func(t *testing.T) {
				cfg := core.Config{P: p, LeafCap: 8}
				if traced {
					cfg.Trace = trace.New(p)
					cfg.Trace.SetEnabled(true)
				}
				b := phys.Generate(phys.ModelPlummer, n, 21)
				bld := core.New(pt.alg, cfg)
				in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
				for ; in.Step < pt.warm; in.Step++ {
					bld.Build(in)
					b.Drift(0, n, 0.02)
				}
				in.Rebuild = pt.rebuild

				before := core.BuildTotalsFor(pt.alg).Builds
				start := time.Now()
				tree, m := bld.Build(in)
				wall := time.Since(start)

				if got := core.BuildTotalsFor(pt.alg).Builds - before; got != 1 {
					t.Errorf("build published %d times into the %v totals, want 1", got, pt.alg)
				}
				if m.FreshReason != pt.reason {
					t.Fatalf("took path %q, want %q", m.FreshReason, pt.reason)
				}
				tm := m.Timing
				if tm.Bounds <= 0 || tm.Insert <= 0 || tm.Moments <= 0 {
					t.Errorf("unset phase timing: %+v", tm)
				}
				if tm.Total() > wall {
					t.Errorf("phase total %v exceeds the build's wall time %v", tm.Total(), wall)
				}
				if err := verify.Build(pt.alg, tree, m, b, in.Step); err != nil {
					t.Error(err)
				}
				if !traced {
					if m.Trace != nil {
						t.Error("untraced build carries a trace summary")
					}
					return
				}
				if m.Trace == nil || len(m.Trace.PerProc) != p {
					t.Fatalf("traced build's summary does not cover %d processors: %+v", p, m.Trace)
				}
				for w, ps := range m.Trace.PerProc {
					for _, ph := range []trace.Phase{trace.PhasePartition, trace.PhaseInsert, trace.PhaseMoments, trace.PhaseBarrier} {
						if ps.PhaseNs[ph] <= 0 {
							t.Errorf("proc %d: no %v time in the trace summary", w, ph)
						}
					}
				}
			})
		}
	}
}
