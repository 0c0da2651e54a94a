package core_test

import (
	"math"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
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

// TestUpdateRescaleMatchesSerialRescale: a repair rescales the resident
// tree with the moments pass's cut and runs; after three repair steps on
// Plummer every live node's cube is, bit for bit, the one a serial
// Store.Rescale from the root cube writes, at any processor count.
func TestUpdateRescaleMatchesSerialRescale(t *testing.T) {
	const n = 4000
	cubeBits := func(tree *octree.Tree) (out [][4]uint64) {
		s := tree.Store
		octree.Walk(tree, func(r octree.Ref, _ int) bool {
			var c vec.Cube
			if r.IsLeaf() {
				c = s.Leaf(r).Cube
			} else {
				c = s.Cell(r).Cube
			}
			out = append(out, [4]uint64{math.Float64bits(c.Center.X), math.Float64bits(c.Center.Y),
				math.Float64bits(c.Center.Z), math.Float64bits(c.Size)})
			return true
		})
		return out
	}
	for _, p := range []int{1, 2, 4} {
		b := phys.Generate(phys.ModelPlummer, n, 13)
		bld := core.New(core.UPDATE, core.Config{P: p, LeafCap: 8})
		in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
		tree, _ := bld.Build(in)
		for in.Step = 1; in.Step <= 3; in.Step++ {
			b.Drift(0, n, 0.05)
			prev := tree.RootCube()
			var m *core.Metrics
			tree, m = bld.Build(in)
			if m.FreshRebuild {
				t.Fatalf("p=%d step %d: built fresh (%s), want a repair", p, in.Step, m.FreshReason)
			}
			// A subtree the rescale skipped keeps its old cubes, which only
			// differ when the root moved.
			if tree.RootCube() == prev {
				t.Fatalf("p=%d step %d: root cube did not move", p, in.Step)
			}
		}
		got := cubeBits(tree)
		tree.Store.Rescale(tree.Root, tree.RootCube())
		want := cubeBits(tree)
		if len(got) != len(want) {
			t.Fatalf("p=%d: %d live nodes before the serial rescale, %d after", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: node %d (walk order) has cube bits %x, serial Rescale writes %x", p, i, got[i], want[i])
			}
		}
	}
}
