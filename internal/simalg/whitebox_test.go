package simalg

import (
	"slices"
	"testing"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/memsim"
	"partree/internal/nbody"
	"partree/internal/octree"
	"partree/internal/phys"
)

// TestSimulatedTreesValid verifies, for every algorithm on every protocol
// family, that the tree built inside the simulator is structurally valid
// against the simulator's final body positions — and canonical for the
// rebuilding algorithms.
func TestSimulatedTreesValid(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 1500, 7)
	for _, pl := range []memsim.Platform{memsim.Origin2000(4), memsim.TyphoonHLRC()} {
		for _, alg := range core.Algorithms() {
			st, _ := run(alg, b, smallCfg(pl, 4))
			d := octree.BodyData{Pos: st.bodies.Pos, Mass: st.bodies.Mass, Cost: st.bodies.Cost}
			// The update phase drifted positions after the last build;
			// rebuild what the final tree should contain by undoing one
			// drift is fiddly — instead verify against the stored tree
			// using the positions the builder saw. UPDATE aside, the
			// final build of step S used positions *before* step S's
			// update, so drift them back.
			undoDrift(st)
			canonical := alg != core.UPDATE
			if err := octree.Check(st.tree, d, octree.CheckOptions{Canonical: canonical}); err != nil {
				t.Fatalf("%v on %s: %v", alg, pl.Name, err)
			}
			if canonical {
				// The simulator's leaves list bodies in the order the
				// replay reached them; the native builders keep them in
				// index order, which is what Equal compares.
				octree.Walk(st.tree, func(r octree.Ref, _ int) bool {
					if r.IsLeaf() {
						slices.Sort(st.tree.Store.Leaf(r).Bodies)
					}
					return true
				})
				ref := octree.BuildSerial(st.bodies.Pos, st.cfg.LeafCap)
				if err := octree.Equal(st.tree, ref); err != nil {
					t.Fatalf("%v on %s: not canonical: %v", alg, pl.Name, err)
				}
			}
		}
	}
}

// undoDrift reverses the final update phase so positions match the last
// tree build (velocity was updated first, so x_old = x_new - v_new*dt).
func undoDrift(st *runState) {
	dt := st.cfg.Dt
	for i := range st.bodies.Pos {
		st.bodies.Pos[i] = st.bodies.Pos[i].MulAdd(-dt, st.bodies.Vel[i])
	}
}

// TestSimulatedLockCountsMatchShape cross-checks the simulated Figure 15
// counts against the native builders' counts on the same workload: the
// Origin-side simulation takes the same locks the native code would.
func TestSimulatedLockCountsMatchShape(t *testing.T) {
	n, p := 2048, 4
	b := phys.Generate(phys.ModelPlummer, n, 3)
	for _, alg := range []core.Algorithm{core.ORIG, core.LOCAL, core.PARTREE, core.SPACE} {
		st, _ := run(alg, b, smallCfg(memsim.Origin2000(p), p))
		var simLocks int64
		for _, sp := range st.procs {
			simLocks += sp.locks
		}
		// Native single rebuild on the *same* assignment scale. Counts
		// will differ (different partitions, retries) but must agree on
		// order of magnitude and on zero-ness.
		bld := core.New(alg, core.Config{P: p, LeafCap: 8})
		_, m := bld.Build(&core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)})
		nat := m.TotalLocks()
		if (simLocks == 0) != (nat == 0) {
			t.Fatalf("%v: sim locks %d vs native %d disagree on zero-ness", alg, simLocks, nat)
		}
		if nat > 0 {
			ratio := float64(simLocks) / float64(nat)
			if ratio < 0.1 || ratio > 10 {
				t.Fatalf("%v: sim locks %d and native locks %d differ by more than 10x", alg, simLocks, nat)
			}
		}
	}

	// At one processor both executions are deterministic, and the counts
	// are equal: the simulator's measured step takes exactly the
	// tree-build locks the native application takes in its second step
	// on the same bodies, θ, ε, dt and leaf capacity. This identity is
	// what holds simalg's text of the five builders to core's (ROADMAP
	// 7(d)). ORIG alone differs, by exactly the nodes it allocated: the
	// simulator models SPLASH-1's global allocation lock, which Go's
	// allocator does not need.
	for _, alg := range core.Algorithms() {
		st, _ := run(alg, b, Config{Platform: memsim.Origin2000(1), P: 1, LeafCap: 8, Theta: 1, Dt: 0.025, MeasuredSteps: 1})
		sim := st.procs[0].locks

		opts := nbody.DefaultOptions()
		opts.Alg, opts.P, opts.LeafCap, opts.Dt = alg, 1, 8, 0.025
		opts.Force = force.Params{Theta: 1, Eps: eps, G: 1}
		native := nbody.NewFromBodies(opts, b.Clone())
		native.Step()
		m := native.Step().Build

		want := m.TotalLocks()
		if alg == core.ORIG {
			want += m.TotalCells() + m.TotalLeaves()
		}
		if sim != want || (alg == core.SPACE && sim != 0) {
			t.Errorf("%v at P=1: %d simulated locks; native took %d and allocated %d cells + %d leaves, so want %d",
				alg, sim, m.TotalLocks(), m.TotalCells(), m.TotalLeaves(), want)
		}
	}
}

// TestVisibilityLocksOnlyOnHLRC: the same run takes many more locks under
// HLRC than under the directory protocol (the paper's observation about
// release consistency requiring extra synchronization).
func TestVisibilityLocksOnlyOnHLRC(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 2048, 5)
	or := Run(core.LOCAL, b, smallCfg(memsim.Origin2000(4), 4))
	ty := Run(core.LOCAL, b, smallCfg(memsim.TyphoonHLRC(), 4))
	if ty.TotalLocks() < 3*or.TotalLocks() {
		t.Fatalf("HLRC locks %d not ≫ Origin locks %d", ty.TotalLocks(), or.TotalLocks())
	}
}
