package nbody

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/vec"
)

func TestSimulationRunsAllAlgorithms(t *testing.T) {
	for _, alg := range core.Algorithms() {
		opts := DefaultOptions()
		opts.N = 2000
		opts.P = 4
		opts.Alg = alg
		opts.Check = true
		sim := New(opts)
		stats := sim.Run(4)
		if len(stats) != 4 {
			t.Fatalf("alg=%v: %d stats", alg, len(stats))
		}
		for _, st := range stats {
			if st.CheckErr != nil {
				t.Fatalf("alg=%v step %d: %v", alg, st.Step, st.CheckErr)
			}
			if st.Phase.Interactions == 0 {
				t.Fatalf("alg=%v step %d: no interactions", alg, st.Step)
			}
			if st.Build.TreeStats.Bodies != opts.N {
				t.Fatalf("alg=%v step %d: tree holds %d bodies", alg, st.Step, st.Build.TreeStats.Bodies)
			}
		}
	}
}

func TestEnergyConservation(t *testing.T) {
	opts := DefaultOptions()
	opts.N = 1500
	opts.P = 4
	opts.Dt = 0.01
	opts.Force.Theta = 0.6
	sim := New(opts)
	_, _, e0 := sim.Energy()
	sim.Run(10)
	_, _, e1 := sim.Energy()
	// |E| ~ 0.25 in model units for a virialized Plummer sphere; drift
	// over 10 small steps should be a few percent at most.
	if drift := math.Abs(e1-e0) / math.Abs(e0); drift > 0.05 {
		t.Fatalf("energy drift %.3f%% too large (E %g -> %g)", 100*drift, e0, e1)
	}
}

func TestMomentumConservation(t *testing.T) {
	opts := DefaultOptions()
	opts.N = 1000
	opts.P = 2
	opts.Dt = 0.01
	sim := New(opts)
	p0 := sim.Bodies.Momentum()
	sim.Run(8)
	p1 := sim.Bodies.Momentum()
	// Barnes-Hut cell approximations break Newton's third law at the
	// θ-error level, so momentum is conserved only approximately.
	if p1.Sub(p0).Len() > 1e-3 {
		t.Fatalf("momentum drifted %v -> %v", p0, p1)
	}
}

// TestAlgorithmsAgreeOnPhysics is the trajectory law. Every builder
// keeps each leaf's bodies in index order, so every build is the serial
// tree to the bit and the force pass sums in one order: from the same
// initial conditions, each step leaves the same position bits whatever
// the algorithm or P. UPDATE is held to it at its fresh step 0 only; its
// repairs leave non-canonical trees that depend on timing.
func TestAlgorithmsAgreeOnPhysics(t *testing.T) {
	const steps = 4
	ref := positionsAfter(core.ORIG, 1, steps)
	for _, alg := range []core.Algorithm{core.ORIG, core.LOCAL, core.PARTREE, core.SPACE, core.UPDATE} {
		for _, p := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%v/p=%d", alg, p), func(t *testing.T) {
				k := steps
				if alg == core.UPDATE {
					k = 1
				}
				for s, pos := range positionsAfter(alg, p, k) {
					for i, got := range pos {
						want := ref[s][i]
						if math.Float64bits(got.X) != math.Float64bits(want.X) ||
							math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
							math.Float64bits(got.Z) != math.Float64bits(want.Z) {
							t.Fatalf("step %d: pos[%d] = %v, want %v", s, i, got, want)
						}
					}
				}
			})
		}
	}
}

// positionsAfter runs steps steps of a 3000-body Plummer sphere with alg
// at p processors and returns the positions after each.
func positionsAfter(alg core.Algorithm, p, steps int) [][]vec.V3 {
	opts := DefaultOptions()
	opts.N = 3000
	opts.P = p
	opts.Alg = alg
	sim := New(opts)
	out := make([][]vec.V3, steps)
	for s := range out {
		sim.Step()
		out[s] = slices.Clone(sim.Bodies.Pos)
	}
	return out
}

func TestTreeShareComputed(t *testing.T) {
	opts := DefaultOptions()
	opts.N = 3000
	opts.P = 2
	sim := New(opts)
	st := sim.Step()
	if st.Total() <= 0 {
		t.Fatal("no time recorded")
	}
	if share := st.TreeShare(); share <= 0 || share >= 1 {
		t.Fatalf("tree share %.3f out of (0,1)", share)
	}
	if st.String() == "" {
		t.Fatal("empty step summary")
	}
}

func TestTwoClusterCollisionProgresses(t *testing.T) {
	opts := DefaultOptions()
	opts.Model = phys.ModelTwoClusters
	opts.N = 1000
	opts.P = 4
	opts.Alg = core.SPACE
	opts.Dt = 0.05
	sim := New(opts)
	sep0 := clusterSeparation(sim.Bodies)
	sim.Run(12)
	sep1 := clusterSeparation(sim.Bodies)
	if sep1 >= sep0 {
		t.Fatalf("clusters did not approach: %.3f -> %.3f", sep0, sep1)
	}
}

func clusterSeparation(b *phys.Bodies) float64 {
	n1 := b.N() / 2
	var c1, c2 vec.V3
	for i := 0; i < n1; i++ {
		c1 = c1.Add(b.Pos[i])
	}
	for i := n1; i < b.N(); i++ {
		c2 = c2.Add(b.Pos[i])
	}
	return c1.Scale(1 / float64(n1)).Dist(c2.Scale(1 / float64(b.N()-n1)))
}

func TestUpdateBuilderLongRun(t *testing.T) {
	// UPDATE across many steps of real dynamics, verified every step.
	opts := DefaultOptions()
	opts.N = 1500
	opts.P = 4
	opts.Alg = core.UPDATE
	opts.Check = true
	opts.Dt = 0.03
	sim := New(opts)
	for _, st := range sim.Run(10) {
		if st.CheckErr != nil {
			t.Fatalf("step %d: %v", st.Step, st.CheckErr)
		}
	}
}
