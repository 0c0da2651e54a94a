package core_test

import (
	"fmt"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/verify"
)

// buildsCounted reads partree_build_total{alg} the way a scrape does.
func buildsCounted(t *testing.T, alg core.Algorithm) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	if err := core.RegisterObs(reg); err != nil {
		t.Fatal(err)
	}
	for _, fam := range reg.Gather() {
		for _, s := range fam.Series {
			if fam.Name == "partree_build_total" && s.Labels[0].Value == alg.String() {
				return s.Value
			}
		}
	}
	t.Fatalf("no partree_build_total series for %v", alg)
	return 0
}

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

				before := buildsCounted(t, pt.alg)
				start := time.Now()
				tree, m := bld.Build(in)
				wall := time.Since(start)

				if got := buildsCounted(t, pt.alg) - before; got != 1 {
					t.Errorf("build published %v times into the %v totals, want 1", got, pt.alg)
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

// TestMomentsAreTracedPerProcessor: the two moments passes fork and join
// like every other phase, so a traced build ends, on every processor,
// with that processor's own span of each pass, each followed by its wait
// at the pass's join — the same join instant on every processor — and the
// trace still agrees with the lock counters (verify's law 6).
func TestMomentsAreTracedPerProcessor(t *testing.T) {
	const n, p = 3000, 2
	rec := trace.New(p)
	rec.SetEnabled(true)
	b := phys.Generate(phys.ModelPlummer, n, 21)
	in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
	tree, m := core.New(core.LOCAL, core.Config{P: p, LeafCap: 8, Trace: rec}).Build(in)
	if err := verify.Build(core.LOCAL, tree, m, b, 0); err != nil {
		t.Fatal(err)
	}
	want := []trace.Phase{trace.PhaseMoments, trace.PhaseBarrier, trace.PhaseMoments, trace.PhaseBarrier}
	var joins [2][p]int64
	for w := 0; w < p; w++ {
		ev := rec.Events(w)
		if len(ev) < len(want) {
			t.Fatalf("proc %d recorded %d events", w, len(ev))
		}
		tail := ev[len(ev)-len(want):]
		for i, e := range tail {
			if e.Kind != trace.KindSpan || e.Phase != want[i] {
				t.Fatalf("proc %d: event %d from the end of the build is %+v, want a %v span", w, len(want)-i, e, want[i])
			}
		}
		for pass := 0; pass < 2; pass++ {
			work, wait := tail[2*pass], tail[2*pass+1]
			if wait.Start != work.End || wait.End < wait.Start {
				t.Errorf("proc %d pass %d: barrier %+v does not start where its moments span %+v ends", w, pass, wait, work)
			}
			joins[pass][w] = wait.End
		}
	}
	for pass, j := range joins {
		if j[0] != j[1] {
			t.Errorf("pass %d: processors left the moments barrier at %d and %d, want one join", pass, j[0], j[1])
		}
	}
}
