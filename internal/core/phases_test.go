package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/obs"
	"partree/internal/octree"
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
// owes every build, whichever algorithm, path and processor count
// produced it: all three timed brackets set and summing to no more than
// the wall time; on every processor, traced or not, partition, insert
// and moments time, and a barrier wait, that together fit inside the
// brackets (every stamp of every fork sits between the bracket's clock
// reads); on a traced build, a summary that is PerP's phase time; and
// exactly one publication into the live per-algorithm totals.
func TestEveryBuildPathRunsThePhaseDriver(t *testing.T) {
	const n = 3000
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
	stamped := []trace.Phase{trace.PhasePartition, trace.PhaseInsert, trace.PhaseMoments}
	check := func(t *testing.T, pt path, traced bool, p int) {
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
		if len(m.PerP) != p {
			t.Fatalf("metrics cover %d processors, want %d", len(m.PerP), p)
		}
		for w := range m.PerP {
			ns := m.PerP[w].PhaseNs
			for _, ph := range stamped {
				if ns[ph] <= 0 {
					t.Errorf("proc %d: no %v time", w, ph)
				}
			}
			sum := ns[trace.PhasePartition] + ns[trace.PhaseInsert] + ns[trace.PhaseMoments] + ns[trace.PhaseBarrier]
			if ns[trace.PhaseBarrier] < 0 || sum > tm.Total().Nanoseconds() {
				t.Errorf("proc %d: phase times %v outside the brackets' %v", w, ns, tm.Total())
			}
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
		checkSummaryIsPerP(t, m)
	}
	for _, pt := range paths {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%t", pt.name, traced), func(t *testing.T) {
				for _, p := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) { check(t, pt, traced, p) })
				}
			})
		}
	}
}

// TestBuildChecksListCount: a builder configured for P processors takes 1
// to P body lists. None, or more than P, panics on the caller's goroutine —
// so the caller can recover it — with a message naming both counts; fewer
// than P builds a verified tree.
func TestBuildChecksListCount(t *testing.T) {
	const n, p = 100, 2
	b := phys.Generate(phys.ModelPlummer, n, 21)
	for _, alg := range core.Algorithms() {
		for _, lists := range []int{0, 1, 3} {
			t.Run(fmt.Sprintf("%v/lists=%d", alg, lists), func(t *testing.T) {
				in := &core.Input{Bodies: b, Assign: core.EvenAssign(n, lists)}
				var r any
				tree, m := func() (*octree.Tree, *core.Metrics) {
					defer func() { r = recover() }()
					return core.New(alg, core.Config{P: p}).Build(in)
				}()
				if lists == 1 {
					if r != nil {
						t.Fatalf("panicked on fewer lists than P: %v", r)
					}
					if err := verify.Build(alg, tree, m, b, 0); err != nil {
						t.Error(err)
					}
					return
				}
				msg, _ := r.(string)
				if !strings.Contains(msg, fmt.Sprintf("%d processor lists", lists)) || !strings.Contains(msg, fmt.Sprintf("1 to %d", p)) {
					t.Fatalf("recovered %v, want a panic naming %d lists and P = %d", r, lists, p)
				}
			})
		}
	}
}

// checkSummaryIsPerP holds a traced build's summary to the build's own
// PerP: the same phase time processor by processor, and the same
// PhaseTotals and ImbalanceRatio as sums taken over PerP.
func checkSummaryIsPerP(t *testing.T, m *core.Metrics) {
	t.Helper()
	if m.Trace == nil || len(m.Trace.PerProc) != len(m.PerP) {
		t.Fatalf("traced build's summary does not cover its %d processors: %+v", len(m.PerP), m.Trace)
	}
	var totals [trace.NumPhases]int64
	var insertSum, insertMax int64
	for w := range m.PerP {
		ns := m.PerP[w].PhaseNs
		if got := m.Trace.PerProc[w].PhaseNs; got != ns {
			t.Errorf("proc %d: summary %v, PerP %v", w, got, ns)
		}
		for ph, v := range ns {
			totals[ph] += v
		}
		insertSum += ns[trace.PhaseInsert]
		insertMax = max(insertMax, ns[trace.PhaseInsert])
	}
	if got := m.Trace.PhaseTotals(); got != totals {
		t.Errorf("PhaseTotals %v, PerP sums %v", got, totals)
	}
	want := float64(insertMax) / (float64(insertSum) / float64(len(m.PerP)))
	if got := m.Trace.ImbalanceRatio(); got != want {
		t.Errorf("ImbalanceRatio %v, PerP's %v", got, want)
	}
}

// TestTracedSummaryIsPerP: whatever the algorithm and processor count,
// a traced build's summary is its PerP phase time, and an untraced
// build carries none.
func TestTracedSummaryIsPerP(t *testing.T) {
	const n = 3000
	b := phys.Generate(phys.ModelPlummer, n, 21)
	for _, alg := range core.Algorithms() {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/p=%d", alg, p), func(t *testing.T) {
				in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
				if _, m := core.New(alg, core.Config{P: p, LeafCap: 8}).Build(in); m.Trace != nil {
					t.Errorf("untraced build carries a summary: %+v", m.Trace)
				}
				rec := trace.New(p)
				rec.SetEnabled(true)
				_, m := core.New(alg, core.Config{P: p, LeafCap: 8, Trace: rec}).Build(in)
				checkSummaryIsPerP(t, m)
			})
		}
	}
}

// TestMomentsAreTracedPerProcessor: the moments pass forks and joins like
// every other phase, so every processor of a traced build carries its
// own moments time, in PerP and in the summary alike.
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
	for w := 0; w < p; w++ {
		if got := m.Trace.PerProc[w].PhaseNs[trace.PhaseMoments]; got <= 0 || got != m.PerP[w].PhaseNs[trace.PhaseMoments] {
			t.Errorf("proc %d: traced moments time %d, PerP's %d", w, got, m.PerP[w].PhaseNs[trace.PhaseMoments])
		}
	}
}

// TestEveryBuilderVerifiesAtEightProcs builds with every algorithm at
// p = 8 over two steps — UPDATE's second one a repair — and verifies
// each build. Under -race (make race) it is the data-race gate for every
// builder's parallel paths.
func TestEveryBuilderVerifiesAtEightProcs(t *testing.T) {
	const p, n = 8, 4096
	bodies := phys.Generate(phys.ModelPlummer, n, 1998)
	for _, alg := range core.Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			bld := core.New(alg, core.Config{P: p, LeafCap: 8})
			in := &core.Input{Bodies: bodies.Clone(), Assign: core.EvenAssign(n, p)}
			for step := 0; step < 2; step++ {
				in.Step = step
				tree, m := bld.Build(in)
				if err := verify.Build(alg, tree, m, in.Bodies, step); err != nil {
					t.Errorf("step %d: %v", step, err)
				}
			}
		})
	}
}

// TestWarmSpaceBuildAllocatesNothingBodySized: everything the counting
// partition needs that grows with n lives on the builder or is borrowed
// from the process's free lists, so the third build of a resident SPACE
// builder — a session's requested SPACE rebuild inside UPDATE, and a
// PARTREE build, whose local trees are sorted the same way — allocates a
// few KB of per-build bookkeeping whatever n is (SPACE's was 28 n bytes).
func TestWarmSpaceBuildAllocatesNothingBodySized(t *testing.T) {
	const p, limitKB = 2, 64
	for _, alg := range []core.Algorithm{core.SPACE, core.UPDATE, core.PARTREE} {
		for _, n := range []int{20000, 80000} {
			b := phys.Generate(phys.ModelPlummer, n, 21)
			bld := core.New(alg, core.Config{P: p, LeafCap: 8})
			in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p), Rebuild: true}
			var before, after runtime.MemStats
			for ; in.Step < 3; in.Step++ {
				runtime.ReadMemStats(&before)
				bld.Build(in)
				runtime.ReadMemStats(&after)
			}
			if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb >= limitKB {
				t.Errorf("%v n=%d: third build allocated %d KB, want < %d", alg, n, kb, limitKB)
			} else {
				t.Logf("%v n=%d: third build allocated %d KB", alg, n, kb)
			}
		}
	}
}
