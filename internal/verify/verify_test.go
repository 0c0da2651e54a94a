package verify

import (
	"math"
	"strings"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
)

// TestCrossProduct is the acceptance grid: every algorithm × every mass
// model × several (p, leafCap) settings must produce a tree that is
// structurally identical to the serial reference with metrics satisfying
// the conservation laws. Run under -race this also exercises the
// builders' locking discipline.
func TestCrossProduct(t *testing.T) {
	models := []phys.Model{phys.ModelPlummer, phys.ModelUniform, phys.ModelTwoClusters}
	settings := []struct{ p, leafCap int }{
		{1, 8},
		{2, 1},
		{4, 16},
		{8, 4},
	}
	for _, alg := range core.Algorithms() {
		for _, model := range models {
			bodies := phys.Generate(model, 1500, 11)
			for _, s := range settings {
				bld := core.New(alg, core.Config{P: s.p, LeafCap: s.leafCap})
				in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), s.p)}
				tree, m := bld.Build(in)
				if err := Build(alg, tree, m, bodies, 0); err != nil {
					t.Fatalf("alg=%v model=%v p=%d k=%d: %v", alg, model, s.p, s.leafCap, err)
				}
			}
		}
	}
}

// TestUpdateRepairSteps verifies UPDATE's non-canonical repair path:
// structural invariants must hold every step even though the tree stops
// matching the serial reference, and the canonical check must notice
// that divergence (negative control for the differential layer).
func TestUpdateRepairSteps(t *testing.T) {
	bodies := phys.Generate(phys.ModelPlummer, 2000, 23)
	bld := core.New(core.UPDATE, core.Config{P: 4, LeafCap: 8})
	sawNonCanonical := false
	for step := 0; step < 6; step++ {
		in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), 4), Step: step}
		tree, m := bld.Build(in)
		if err := Build(core.UPDATE, tree, m, bodies, step); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step > 0 && !sawNonCanonical {
			if err := Tree(tree, bodies, true); err != nil {
				sawNonCanonical = true
			}
		}
		bodies.Drift(0, bodies.N(), 0.1)
	}
	if !sawNonCanonical {
		t.Fatal("drifted UPDATE tree never diverged from the serial reference; differential check has no teeth")
	}
}

// requestedRebuild runs a resident UPDATE builder through two repair
// steps and then a requested rebuild (FreshRequested, at step 3), and
// returns that build.
func requestedRebuild(t *testing.T) (*octree.Tree, *core.Metrics, *phys.Bodies) {
	t.Helper()
	const n, p = 2000, 4
	bodies := phys.Generate(phys.ModelPlummer, n, 29)
	bld := core.New(core.UPDATE, core.Config{P: p, LeafCap: 8})
	for step := 0; ; step++ {
		in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(n, p), Step: step, Rebuild: step == 3}
		tree, m := bld.Build(in)
		if step == 3 {
			if m.FreshReason != core.FreshRequested {
				t.Fatalf("step 3: reason %q, want %q", m.FreshReason, core.FreshRequested)
			}
			return tree, m, bodies
		}
		bodies.Drift(0, n, 0.05)
	}
}

// TestUpdateFreshRebuildIsCanonical: a fresh UPDATE build is held to the
// serial tree and to SPACE's laws whatever its step — the requested
// rebuild comes at step 3 — while a repair step is not.
func TestUpdateFreshRebuildIsCanonical(t *testing.T) {
	tree, m, bodies := requestedRebuild(t)
	if !Canonical(core.UPDATE, m) {
		t.Fatal("a requested rebuild at step 3 is not canonical")
	}
	if err := Build(core.UPDATE, tree, m, bodies, 3); err != nil {
		t.Fatalf("pristine requested rebuild rejected: %v", err)
	}
	if Canonical(core.UPDATE, &core.Metrics{Alg: core.UPDATE}) {
		t.Fatal("a repair step is canonical")
	}
	t.Run("locks", func(t *testing.T) {
		tree, m, bodies := requestedRebuild(t)
		m.PerP[1].Locks = 1
		if err := Build(core.UPDATE, tree, m, bodies, 3); err == nil || !strings.Contains(err.Error(), "locks") {
			t.Fatalf("a requested rebuild that took a lock accepted: %v", err)
		}
	})
	t.Run("leaves", func(t *testing.T) {
		tree, m, bodies := requestedRebuild(t)
		m.PerP[0].Leaves++
		if err := Build(core.UPDATE, tree, m, bodies, 3); err == nil || !strings.Contains(err.Error(), "leaves") {
			t.Fatalf("a requested rebuild allocating a leaf it does not hold accepted: %v", err)
		}
	})
}

func buildFor(t *testing.T, alg core.Algorithm, n, p, leafCap int) (*octree.Tree, *core.Metrics, *phys.Bodies) {
	t.Helper()
	bodies := phys.Generate(phys.ModelPlummer, n, 5)
	bld := core.New(alg, core.Config{P: p, LeafCap: leafCap})
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(n, p)}
	tree, m := bld.Build(in)
	if err := Build(alg, tree, m, bodies, 0); err != nil {
		t.Fatalf("pristine build rejected: %v", err)
	}
	return tree, m, bodies
}

func firstLiveLeaf(t *testing.T, tr *octree.Tree) *octree.Leaf {
	return leafWithAtLeast(t, tr, 1)
}

// leafWithAtLeast returns a live leaf holding at least k bodies.
func leafWithAtLeast(t *testing.T, tr *octree.Tree, k int) *octree.Leaf {
	t.Helper()
	for _, r := range octree.LiveLeaves(tr) {
		if l := tr.Store.Leaf(r); len(l.Bodies) >= k {
			return l
		}
	}
	t.Fatalf("tree has no live leaf with >= %d bodies", k)
	return nil
}

// TestCorruptedTreeRejected is the negative acceptance test: deliberate
// structural damage of every kind must be caught.
func TestCorruptedTreeRejected(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, tr *octree.Tree)
		want    string
	}{
		{"duplicated body", func(t *testing.T, tr *octree.Tree) {
			l := firstLiveLeaf(t, tr)
			l.Bodies = append(l.Bodies, l.Bodies[0])
		}, "appears in"},
		{"dropped body", func(t *testing.T, tr *octree.Tree) {
			l := leafWithAtLeast(t, tr, 2)
			l.Bodies = l.Bodies[:len(l.Bodies)-1]
		}, "appears in"},
		{"reachable retired leaf", func(t *testing.T, tr *octree.Tree) {
			firstLiveLeaf(t, tr).Retired = true
		}, "retired"},
		{"displaced cube", func(t *testing.T, tr *octree.Tree) {
			l := firstLiveLeaf(t, tr)
			l.Cube.Center.X += l.Cube.Size
		}, "cube"},
		{"broken parent link", func(t *testing.T, tr *octree.Tree) {
			firstLiveLeaf(t, tr).Parent = octree.Nil
		}, "parent link"},
		{"stale moments", func(t *testing.T, tr *octree.Tree) {
			firstLiveLeaf(t, tr).Mass *= 2
		}, "moments"},
		{"swapped bodies", func(t *testing.T, tr *octree.Tree) {
			l := leafWithAtLeast(t, tr, 2)
			l.Bodies[0], l.Bodies[1] = l.Bodies[1], l.Bodies[0]
		}, "body lists differ"},
		{"last bit of mass", func(t *testing.T, tr *octree.Tree) {
			l := firstLiveLeaf(t, tr)
			l.Mass = math.Float64frombits(math.Float64bits(l.Mass) ^ 1)
		}, "moments"},
		{"foreign body index", func(t *testing.T, tr *octree.Tree) {
			l := firstLiveLeaf(t, tr)
			l.Bodies[0] = 1 << 20
		}, "out-of-range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tree, _, bodies := buildFor(t, core.LOCAL, 1200, 4, 8)
			tc.corrupt(t, tree)
			err := Tree(tree, bodies, true)
			if err == nil {
				t.Fatal("corrupted tree accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestShapeDivergenceRejected corrupts the tree in a way that keeps it
// internally consistent but different from the serial reference: an
// unnecessary subdivision (legal leaf split below the cap). Only the
// differential layer can catch it.
func TestShapeDivergenceRejected(t *testing.T) {
	tree, _, bodies := buildFor(t, core.LOCAL, 1200, 4, 8)
	// Rebuild with a smaller leaf cap: same bodies, internally valid
	// tree, but not the tree the spec's leaf cap produces.
	finer := octree.BuildSerial(bodies.Pos, 4)
	octree.ComputeMomentsSerial(finer, octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost})
	if err := octree.Equal(tree, finer); err == nil {
		t.Fatal("k=8 and k=4 trees unexpectedly identical; pick a different workload")
	}
	err := Tree(finer, bodies, true)
	if err != nil {
		t.Fatalf("k=4 serial tree must self-verify: %v", err)
	}
	// Against the k=8 spec the k=4 tree must be rejected differentially.
	ref := octree.BuildSerial(bodies.Pos, 8)
	if err := octree.Equal(finer, ref); err == nil {
		t.Fatal("differential comparison missed a shape divergence")
	}
}

// TestMetricsLawsRejectCorruption audits each conservation law's teeth.
func TestMetricsLawsRejectCorruption(t *testing.T) {
	t.Run("bodies built", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.PARTREE, 1000, 4, 8)
		m.PerP[0].BodiesBuilt++
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "BodiesBuilt") {
			t.Fatalf("inflated BodiesBuilt accepted: %v", err)
		}
	})
	t.Run("space locks", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.SPACE, 1000, 4, 8)
		m.PerP[2].Locks = 7
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "locks") {
			t.Fatalf("locking SPACE accepted: %v", err)
		}
	})
	t.Run("space leaves", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.SPACE, 1000, 4, 8)
		m.PerP[3].Leaves++
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "leaves") {
			t.Fatalf("SPACE allocating a leaf it does not hold accepted: %v", err)
		}
	})
	t.Run("update first build locks", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.UPDATE, 1000, 4, 8)
		m.PerP[1].Locks = 1
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "locks") {
			t.Fatalf("a first UPDATE build that took a lock accepted: %v", err)
		}
	})
	t.Run("lost allocation", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.LOCAL, 1000, 4, 8)
		zeroed := false
		for i := range m.PerP {
			if m.PerP[i].Cells > 0 {
				m.PerP[i].Cells = 0
				zeroed = true
				break
			}
		}
		if !zeroed {
			t.Fatal("no processor allocated cells; grow the workload")
		}
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "cells") {
			t.Fatalf("undercounted cells accepted: %v", err)
		}
	})
	t.Run("leaf law", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.ORIG, 1000, 4, 8)
		m.PerP[0].Leaves += 3
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "leaves") {
			t.Fatalf("inflated leaf count accepted: %v", err)
		}
	})
	t.Run("lock floor", func(t *testing.T) {
		tree, m, bodies := buildFor(t, core.ORIG, 1000, 4, 8)
		for i := range m.PerP {
			m.PerP[i].Locks = 0
		}
		if err := Metrics(m, tree, bodies.N(), true); err == nil || !strings.Contains(err.Error(), "locks") {
			t.Fatalf("lock-free ORIG accepted: %v", err)
		}
	})
}

// TestCostConservationLaw: a tampered root Cost moment on an otherwise
// pristine tree must be rejected by Build — the moments check recomputes
// every node's Cost from the bodies, so the total cannot drift from
// their sum.
func TestCostConservationLaw(t *testing.T) {
	tree, m, bodies := buildFor(t, core.SPACE, 1200, 4, 8)
	if tree.Root.IsLeaf() {
		t.Fatal("workload too small: root is a leaf")
	}
	tree.Store.Cell(tree.Root).Cost++
	if err := Build(core.SPACE, tree, m, bodies, 0); err == nil || !strings.Contains(err.Error(), "moments stale") {
		t.Fatalf("tampered root cost accepted: %v", err)
	}
}

// TestCostConservationUnderUpdateFallback: a resident UPDATE builder
// over non-uniform costs must pass Build, every node's Cost included, on
// every path — the step-0 load, incremental repairs after drift, and the
// policy-forced SPACE-fallback rebuild into the resident store
// (Input.Rebuild → FreshRequested), which re-partitions space and
// re-attaches every body without going through the repair queue.
func TestCostConservationUnderUpdateFallback(t *testing.T) {
	const n, p = 2000, 4
	bodies := phys.Generate(phys.ModelPlummer, n, 17)
	for i := range bodies.Cost {
		bodies.Cost[i] = 1 + int64(i%97) // non-trivial, position-independent
	}
	bld := core.New(core.UPDATE, core.Config{P: p, LeafCap: 8})
	sawRequested := false
	for step := 0; step < 6; step++ {
		in := &core.Input{
			Bodies:  bodies,
			Assign:  core.EvenAssign(n, p),
			Step:    step,
			Rebuild: step == 3,
		}
		tree, m := bld.Build(in)
		if step == 3 {
			if !m.FreshRebuild || m.FreshReason != core.FreshRequested {
				t.Fatalf("step 3: fallback rebuild not taken (fresh=%v reason=%q)", m.FreshRebuild, m.FreshReason)
			}
			sawRequested = true
		}
		if err := Build(core.UPDATE, tree, m, bodies, step); err != nil {
			t.Fatalf("step %d (fresh=%v): %v", step, m.FreshRebuild, err)
		}
		bodies.Drift(0, n, 0.05)
	}
	if !sawRequested {
		t.Fatal("fallback rebuild never exercised")
	}
}

// TestAlgorithmCompanionCheck exercises the self-contained entry point
// every simulated spec uses.
func TestAlgorithmCompanionCheck(t *testing.T) {
	bodies := phys.Generate(phys.ModelTwoClusters, 2048, 9)
	for _, alg := range core.Algorithms() {
		if err := Algorithm(alg, bodies, 4, 8); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
	}
	if err := Algorithm(core.SPACE, phys.NewBodies(0), 3, 8); err != nil {
		t.Fatalf("empty system: %v", err)
	}
}

// TestEmptyAndTinySystems pins the degenerate ends of the grid.
func TestEmptyAndTinySystems(t *testing.T) {
	for _, n := range []int{0, 1, 2, 9} {
		for _, alg := range core.Algorithms() {
			bodies := phys.Generate(phys.ModelUniform, n, 3)
			bld := core.New(alg, core.Config{P: 2, LeafCap: 8})
			in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(n, 2)}
			tree, m := bld.Build(in)
			if err := Build(alg, tree, m, bodies, 0); err != nil {
				t.Fatalf("alg=%v n=%d: %v", alg, n, err)
			}
		}
	}
}
