package core_test

import (
	"fmt"
	"math"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

// nodeMoments is every moment the passes write on one node, floats as
// their bits so the comparison is exact.
type nodeMoments struct {
	ref   octree.Ref
	f     [4]uint64 // Mass, COM
	nbody int32
	cost  int64
}

func bitsOf(mass float64, com vec.V3) (f [4]uint64) {
	for i, v := range [...]float64{mass, com.X, com.Y, com.Z} {
		f[i] = math.Float64bits(v)
	}
	return f
}

// liveMoments snapshots the moments of every node reachable from the
// root and then overwrites them, so the next pass has to write each one
// to match.
func liveMoments(t *octree.Tree) []nodeMoments {
	var out []nodeMoments
	s := t.Store
	octree.Walk(t, func(r octree.Ref, _ int) bool {
		if r.IsLeaf() {
			l := s.Leaf(r)
			out = append(out, nodeMoments{r, bitsOf(l.Mass, l.COM), int32(len(l.Bodies)), l.Cost})
			l.Mass, l.COM, l.Cost = math.NaN(), vec.V3{X: math.NaN()}, -1
		} else {
			c := s.Cell(r)
			out = append(out, nodeMoments{r, bitsOf(c.Mass, c.COM), c.NBody, c.Cost})
			c.Mass, c.COM, c.NBody, c.Cost = math.NaN(), vec.V3{X: math.NaN()}, -1, -1
		}
		return true
	})
	return out
}

// TestParallelMomentsBitIdenticalToSerial: the subtree-task pass writes,
// on every live node, exactly the bits the serial recursion writes —
// whatever builder made the tree and whatever it left in the arenas
// (UPDATE's retired leaves and emptied cells, PARTREE's discarded local
// trees, ORIG's CAS losers), and on the trees with no level to cut. Both
// passes count the nodes they visit into exactly octree.CollectStats.
func TestParallelMomentsBitIdenticalToSerial(t *testing.T) {
	const n, p = 4000, 3
	trees := map[string]func() (*octree.Tree, octree.BodyData){}
	for _, alg := range core.Algorithms() {
		trees[alg.String()] = func() (*octree.Tree, octree.BodyData) {
			b := phys.Generate(phys.ModelPlummer, n, 11)
			for i := range b.Cost {
				b.Cost[i] = int64(1 + i%7)
			}
			bld := core.New(alg, core.Config{P: p, LeafCap: 4})
			in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
			tree, m := bld.Build(in)
			// Three more steps on drifting bodies: UPDATE repairs, moving
			// bodies out of leaves it retires and cells it empties.
			for in.Step = 1; in.Step <= 3; in.Step++ {
				b.Drift(0, n, 0.05)
				tree, m = bld.Build(in)
			}
			if alg == core.UPDATE && (m.FreshRebuild || m.TotalBodiesMoved() == 0) {
				t.Fatalf("UPDATE step 3: fresh=%v moved=%d, want a repair that moved bodies", m.FreshRebuild, m.TotalBodiesMoved())
			}
			return tree, octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		}
	}
	cube := vec.Cube{Center: vec.V3{X: 1, Y: 2, Z: 3}, Size: 2}
	trees["zero-body"] = func() (*octree.Tree, octree.BodyData) {
		return octree.NewTree(octree.NewStore(1, 8), 0, 0, cube), octree.BodyData{}
	}
	trees["single-leaf-root"] = func() (*octree.Tree, octree.BodyData) {
		b := phys.Generate(phys.ModelUniform, 5, 2)
		s := octree.NewStore(1, 8)
		lr, l := s.AllocLeaf(0, b.Bounds(1e-4), octree.Nil, 0)
		l.Bodies = append(l.Bodies, 0, 1, 2, 3, 4)
		return &octree.Tree{Store: s, Root: lr}, octree.BodyData{Pos: b.Pos, Mass: b.Mass}
	}
	trees["shallower-than-the-cut"] = func() (*octree.Tree, octree.BodyData) {
		b := phys.Generate(phys.ModelPlummer, 300, 5)
		return octree.BuildSerial(b.Pos, 8), octree.BodyData{Pos: b.Pos, Mass: b.Mass}
	}

	for name, mk := range trees {
		t.Run(name, func(t *testing.T) {
			tree, d := mk()
			wantStats := octree.CollectStats(tree)
			if st := octree.ComputeMomentsSerial(tree, d); st != wantStats {
				t.Fatalf("serial pass counted %v, CollectStats %v", st, wantStats)
			}
			want := liveMoments(tree)
			for _, w := range []int{2, 3, 8} {
				if st := octree.ComputeMomentsParallel(tree, d, w); st != wantStats {
					t.Fatalf("w=%d: pass counted %v, CollectStats %v", w, st, wantStats)
				}
				got := liveMoments(tree)
				if len(got) != len(want) {
					t.Fatalf("w=%d: %d live nodes, serial pass saw %d", w, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("w=%d: node %v\n got %s\nwant %s", w, want[i].ref, fmt.Sprint(got[i]), fmt.Sprint(want[i]))
					}
				}
			}
		})
	}
}

// TestMetricsTreeStatsMatchCollectStats: the stats a build carries on its
// Metrics are exactly what walking its tree yields — for every builder,
// processor count and mass model, on a fresh build, after ten steps of
// drift (UPDATE repairs: the leaves it retired and the cells it emptied
// are not counted, nor any CAS loser), and after a requested rebuild.
func TestMetricsTreeStatsMatchCollectStats(t *testing.T) {
	const n = 3000
	for _, model := range []phys.Model{phys.ModelPlummer, phys.ModelHierarchical, phys.ModelUniform} {
		for _, alg := range core.Algorithms() {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%v/%v/p=%d", model, alg, p), func(t *testing.T) {
					b := phys.Generate(model, n, 21)
					bld := core.New(alg, core.Config{P: p, LeafCap: 4})
					in := &core.Input{Bodies: b, Assign: core.SpatialAssign(b, p)}
					build := func(what string) *core.Metrics {
						tree, m := bld.Build(in)
						if want := octree.CollectStats(tree); m.TreeStats != want || want.Bodies != n {
							t.Fatalf("%s: Metrics carry %v, the tree holds %v", what, m.TreeStats, want)
						}
						return m
					}
					build("step 0")
					var moved int64
					for in.Step = 1; in.Step <= 10; in.Step++ {
						b.Drift(0, n, 0.03)
						moved += build(fmt.Sprintf("step %d", in.Step)).TotalBodiesMoved()
					}
					if alg != core.UPDATE {
						return
					}
					if moved == 0 {
						t.Fatal("ten UPDATE steps repaired nothing: the drift is too small to retire a leaf")
					}
					in.Rebuild = true
					if m := build("requested rebuild"); m.FreshReason != core.FreshRequested {
						t.Fatalf("rebuild step: reason %q, want %q", m.FreshReason, core.FreshRequested)
					}
				})
			}
		}
	}
}

// TestSpaceSortsTheSerialTreeBitForBit: SPACE's sorted subtrees are the
// tree inserting the bodies one by one gives, to the bit. Under an even
// assignment every subspace lists its bodies in index order, as
// octree.BuildSerial inserts them, so over the same root cube every
// node, every leaf's body list in order, and every moment must match the
// serial build's — for SPACE and for UPDATE's first build and requested
// rebuild, on a deep skewed tree, on coincident bodies stacked to
// MaxDepth, and at a leaf capacity of one.
func TestSpaceSortsTheSerialTreeBitForBit(t *testing.T) {
	type node struct {
		leaf   bool
		bodies string
		m      nodeMoments
	}
	snapshot := func(tree *octree.Tree) []node {
		var out []node
		ms := liveMoments(tree)
		octree.Walk(tree, func(r octree.Ref, _ int) bool {
			nd := node{leaf: r.IsLeaf(), m: ms[len(out)]}
			if nd.leaf {
				nd.bodies = fmt.Sprint(tree.Store.Leaf(r).Bodies)
			}
			nd.m.ref = octree.Nil
			out = append(out, nd)
			return true
		})
		return out
	}
	coincident := phys.Generate(phys.ModelPlummer, 3000, 4)
	for i := 0; i < 40; i++ {
		coincident.Pos[i*50] = vec.V3{X: 0.01, Y: 0.02, Z: 0.03}
	}
	for _, c := range []struct {
		name    string
		bodies  *phys.Bodies
		leafCap int
	}{
		{"plummer", phys.Generate(phys.ModelPlummer, 6000, 3), 8},
		{"hierarchical", phys.Generate(phys.ModelHierarchical, 6000, 3), 8},
		{"coincident", coincident, 4},
		{"leafcap-1", phys.Generate(phys.ModelTwoClusters, 2000, 3), 1},
	} {
		for _, alg := range []core.Algorithm{core.SPACE, core.UPDATE} {
			for _, p := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%v/p=%d", c.name, alg, p), func(t *testing.T) {
					b := c.bodies
					bld := core.New(alg, core.Config{P: p, LeafCap: c.leafCap})
					in := &core.Input{Bodies: b, Assign: core.EvenAssign(b.N(), p)}
					check := func(tree *octree.Tree, m *core.Metrics) {
						t.Helper()
						got := snapshot(tree)
						ref := octree.BuildSerialInto(octree.NewStore(1, c.leafCap), tree.RootCube(), b.Pos)
						octree.ComputeMomentsSerial(ref, octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost})
						want := snapshot(ref)
						if len(got) != len(want) {
							t.Fatalf("%s: %d live nodes, the serial tree has %d", m.FreshReason, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: pre-order node %d:\n got %+v\nwant %+v", m.FreshReason, i, got[i], want[i])
							}
						}
						if leaves, live := m.TotalLeaves(), int64(octree.CollectStats(tree).Leaves); leaves != live {
							t.Fatalf("%s: allocated %d leaves for %d live", m.FreshReason, leaves, live)
						}
					}
					check(bld.Build(in))
					if alg == core.UPDATE {
						in.Step, in.Rebuild = 1, true
						tree, m := bld.Build(in)
						if m.FreshReason != core.FreshRequested {
							t.Fatalf("reason %q, want a requested rebuild", m.FreshReason)
						}
						check(tree, m)
					}
				})
			}
		}
	}
}
