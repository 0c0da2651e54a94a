package core_test

import (
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/verify"
)

// TestUpdateRestartsBuildFresh: every way a resident UPDATE builder can
// lose the thread of its step sequence — step 0 again, a resized body
// set on the next step or after a gap, the same set after a gap — builds
// from scratch with the reason named, on SPACE's path: the serial tree,
// zero locks, exactly the live leaves (verify.Build holds all three).
// The continuous step after it repairs that fresh tree.
func TestUpdateRestartsBuildFresh(t *testing.T) {
	const n, p = 3000, 2
	for _, c := range []struct {
		name   string
		step   int // the restarting build's Step, after steps 0 and 1
		n      int // its body count
		reason string
	}{
		{"step 0 again", 0, n, core.FreshStep0},
		{"resized on the next step", 2, n / 2, core.FreshSwap},
		{"resized after a gap", 5, n / 2, core.FreshRestart},
		{"same set after a gap", 5, n, core.FreshDiscontinuity},
	} {
		t.Run(c.name, func(t *testing.T) {
			bld := core.New(core.UPDATE, core.Config{P: p, LeafCap: 8})
			b := phys.Generate(phys.ModelPlummer, n, 7)
			for step := 0; step < 2; step++ {
				bld.Build(&core.Input{Bodies: b, Assign: core.SpatialAssign(b, p), Step: step})
				b.Drift(0, n, 0.02)
			}

			if c.n != n {
				b = phys.Generate(phys.ModelPlummer, c.n, 8)
			}
			in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p), Step: c.step}
			tree, m := bld.Build(in)
			if !m.FreshRebuild || m.FreshReason != c.reason {
				t.Fatalf("fresh=%v reason %q, want a fresh build for %q", m.FreshRebuild, m.FreshReason, c.reason)
			}
			if l := m.TotalLocks(); l != 0 {
				t.Errorf("the fresh build took %d locks, want 0", l)
			}
			if err := verify.Build(core.UPDATE, tree, m, b, in.Step); err != nil {
				t.Fatal(err)
			}

			b.Drift(0, c.n, 0.02)
			in.Step++
			tree, m = bld.Build(in)
			if m.FreshRebuild {
				t.Fatalf("the step after the restart rebuilt (%q), want a repair", m.FreshReason)
			}
			if m.TotalBodiesMoved() == 0 {
				t.Error("the repair moved no body despite drift")
			}
			if err := verify.Build(core.UPDATE, tree, m, b, in.Step); err != nil {
				t.Fatal(err)
			}
		})
	}
}
