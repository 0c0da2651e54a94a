// Quickstart: build a Barnes-Hut octree in parallel with the paper's
// lock-free SPACE algorithm, compute one step of forces, and print what
// happened. Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"runtime"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/nbody"
	"partree/internal/octree"
	"partree/internal/phys"
)

func main() {
	// A 16k-body Plummer-model galaxy, the same workload the paper uses.
	opts := nbody.DefaultOptions()
	opts.N = 16384
	opts.P = runtime.GOMAXPROCS(0)
	opts.Alg = core.SPACE // try core.ORIG, core.LOCAL, core.UPDATE, core.PARTREE
	sim := nbody.New(opts)

	// One full time step: tree build -> costzones partition -> forces ->
	// update, with per-phase timing.
	st := sim.Step()
	fmt.Println("step:", st)
	fmt.Println("tree:", st.Build.TreeStats)
	fmt.Printf("build synchronization: %d lock acquisitions (%v)\n",
		st.Build.TotalLocks(), opts.Alg)

	// The pieces are usable on their own, too: here is a direct force
	// evaluation against the tree the step just built.
	d := octree.BodyData{Pos: sim.Bodies.Pos, Mass: sim.Bodies.Mass, Cost: sim.Bodies.Cost}
	r := force.Accel(sim.Tree, d, 0, force.DefaultParams())
	fmt.Printf("body 0: acc=%v from %d interactions (%d nodes visited)\n",
		r.Acc, r.Interactions, r.NodesVisited)

	// And a standalone tree build outside the simulation driver.
	bodies := phys.Generate(phys.ModelUniform, 4096, 7)
	builder := core.New(core.PARTREE, core.Config{P: 4, LeafCap: 8})
	tree, metrics := builder.Build(&core.Input{
		Bodies: bodies,
		Assign: core.SpatialAssign(bodies, 4),
	})
	fmt.Println("standalone build:", octree.CollectStats(tree))
	fmt.Println("metrics:", metrics)
}
