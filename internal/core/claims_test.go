package core_test

import (
	"fmt"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
	"partree/internal/verify"
)

// TestSpaceClaimsBuildTheSerialTree: however the subspaces are claimed
// and stolen, SPACE — and UPDATE's fresh builds, its first and a
// requested rebuild — sort octree.BuildSerial's tree bit for bit
// (verify.Build), with zero locks, every body built once and
// Metrics.TreeStats the tree's; at every processor count, oversubscribed
// ones included, at thresholds from the leaf capacity to beyond n, and
// over the spatial assignment, under which a subspace's bodies arrive
// already in octant order, and the even one, under which they do not.
// Besides the five mass models, two sets stress the partition:
// coincident bodies, which a chain of one-child cells follows to
// MaxDepth, and a cluster that sits, all but one outlier, deep inside one
// root octant, which takes extra counting rounds at p > 1.
func TestSpaceClaimsBuildTheSerialTree(t *testing.T) {
	const n, leafCap = 1500, 8
	type bodySet struct {
		name string
		b    *phys.Bodies
	}
	var sets []bodySet
	for _, m := range phys.Models() {
		sets = append(sets, bodySet{m.String(), phys.Generate(m, n, 5)})
	}
	coincident := phys.Generate(phys.ModelPlummer, n, 6)
	for i := 0; i < 120; i++ {
		coincident.Pos[i*12] = vec.V3{X: 0.01, Y: 0.02, Z: 0.03}
	}
	cluster := phys.Generate(phys.ModelPlummer, n, 7)
	for i := range cluster.Pos {
		cluster.Pos[i] = cluster.Pos[i].Scale(1e-3).Add(vec.V3{X: 0.1, Y: 0.1, Z: 0.1})
	}
	cluster.Pos[n-1] = vec.V3{X: 1, Y: 1, Z: 1}
	sets = append(sets, bodySet{"coincident", coincident}, bodySet{"one-octant", cluster})

	for _, set := range sets {
		for _, th := range []int{leafCap, 50, 0, n + 1} {
			for _, p := range []int{1, 2, 3, 4, 8, 16} {
				for _, alg := range []core.Algorithm{core.SPACE, core.UPDATE} {
					for _, spatial := range []bool{true, false} {
						t.Run(fmt.Sprintf("%s/th=%d/p=%d/%v/spatial=%v", set.name, th, p, alg, spatial), func(t *testing.T) {
							b := set.b
							bld := core.New(alg, core.Config{P: p, LeafCap: leafCap, SpaceThreshold: th})
							in := &core.Input{Bodies: b, Assign: core.EvenAssign(n, p)}
							if spatial {
								in.Assign = core.SpatialAssign(b, p)
							}
							check := func(step int, rebuild bool) {
								t.Helper()
								in.Step, in.Rebuild = step, rebuild
								tree, m := bld.Build(in)
								if err := verify.Build(alg, tree, m, b, step); err != nil {
									t.Fatal(err)
								}
								if alg == core.UPDATE && !m.FreshRebuild {
									t.Fatalf("step %d repaired, want a fresh build", step)
								}
								if locks, built := m.TotalLocks(), m.TotalBodiesBuilt(); locks != 0 || built != n {
									t.Fatalf("step %d: %d locks and %d bodies built, want 0 and %d", step, locks, built, n)
								}
								if want := octree.CollectStats(tree); m.TreeStats != want {
									t.Fatalf("step %d: Metrics carry %v, the tree holds %v", step, m.TreeStats, want)
								}
							}
							check(0, false)
							if alg == core.UPDATE {
								check(1, true)
							}
						})
					}
				}
			}
		}
	}
}
