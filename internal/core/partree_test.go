package core_test

import (
	"fmt"
	"slices"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/verify"
)

// TestPartreeSortedLocalTrees: every PARTREE processor sorts its bodies
// into a private local tree, and the merge of those trees is
// octree.BuildSerial's tree bit for bit (verify.Build), at p = 1, 2 and 4
// over the spatial and the even assignment, on the inputs that stress
// the sort: coincident bodies, which each local tree holding some of
// them follows down to MaxDepth (where the merge combines their leaves);
// a cluster inside one root octant, so a local root has one child; a
// processor with an empty list (at p = 1, an empty body set); and one
// with LeafCap bodies, few enough that a sort from the root itself would
// make the root a leaf. Every processor allocates its local root as a
// cell, whatever its list holds.
func TestPartreeSortedLocalTrees(t *testing.T) {
	const n, leafCap = 1500, 8
	coincident, cluster := sortStressSets(n)
	plummer := phys.Generate(phys.ModelPlummer, n, 8)
	assign := func(b *phys.Bodies, p int, spatial bool) [][]int32 {
		if spatial {
			return core.SpatialAssign(b, p)
		}
		return core.EvenAssign(b.N(), p)
	}
	// keepLast leaves the last processor the first k bodies of its list
	// and hands the rest to processor 0.
	keepLast := func(lists [][]int32, k int) [][]int32 {
		last := lists[len(lists)-1]
		lists[0] = append(slices.Clone(lists[0]), last[k:]...)
		lists[len(lists)-1] = last[:k]
		return lists
	}
	cases := []struct {
		name string
		in   func(p int, spatial bool) (*phys.Bodies, [][]int32)
	}{
		{"coincident", func(p int, spatial bool) (*phys.Bodies, [][]int32) {
			return coincident, assign(coincident, p, spatial)
		}},
		{"one-octant", func(p int, spatial bool) (*phys.Bodies, [][]int32) {
			return cluster, assign(cluster, p, spatial)
		}},
		{"empty-list", func(p int, spatial bool) (*phys.Bodies, [][]int32) {
			if p == 1 {
				b := phys.Generate(phys.ModelPlummer, 0, 8)
				return b, assign(b, p, spatial)
			}
			return plummer, keepLast(assign(plummer, p, spatial), 0)
		}},
		{"leafcap-list", func(p int, spatial bool) (*phys.Bodies, [][]int32) {
			if p == 1 {
				b := phys.Generate(phys.ModelPlummer, leafCap, 8)
				return b, assign(b, p, spatial)
			}
			return plummer, keepLast(assign(plummer, p, spatial), leafCap)
		}},
	}
	for _, c := range cases {
		for _, p := range []int{1, 2, 4} {
			for _, spatial := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/p=%d/spatial=%v", c.name, p, spatial), func(t *testing.T) {
					b, lists := c.in(p, spatial)
					tree, m := core.New(core.PARTREE, core.Config{P: p, LeafCap: leafCap}).Build(&core.Input{Bodies: b, Assign: lists})
					if err := verify.Build(core.PARTREE, tree, m, b, 0); err != nil {
						t.Fatal(err)
					}
					for w, list := range lists {
						if got := m.PerP[w].BodiesBuilt; got != int64(len(list)) {
							t.Errorf("processor %d built %d bodies, its list holds %d", w, got, len(list))
						}
						if m.PerP[w].Cells < 1 {
							t.Errorf("processor %d of %d bodies allocated no cell, want at least its local root", w, len(list))
						}
					}
				})
			}
		}
	}
}
