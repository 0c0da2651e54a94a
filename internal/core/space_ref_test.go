package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
)

// refSpacePartition is the counting partition as it stood before it
// became a counting sort, kept (its forks plain par.Do) as the
// differential oracle of TestSpacePartitionMatchesReference:
// per-processor body lists carried through the rounds, finalized bodies
// appended per (processor, subspace) and concatenated serially.
func refSpacePartition(s *octree.Store, tree *octree.Tree, in *Input, threshold int, m *Metrics) []Subspace {
	p := in.P()
	pos := in.Bodies.Pos

	frontier := []FrontierCell{{tree.Root, tree.RootCube(), 0}}

	// Per-processor routing state: which frontier cell each of my bodies
	// currently belongs to.
	myBodies := make([][]int32, p)
	myCell := make([][]int32, p) // frontier index per body
	par.Do(p, func(w int) {
		myBodies[w] = append([]int32(nil), in.Assign[w]...)
		myCell[w] = make([]int32, len(myBodies[w]))
	})

	var subs []Subspace
	counts := make([][]int64, p) // per proc: frontier×8 histogram
	octs := make([][]uint8, p)   // per proc: octant of each body this round

	for len(frontier) > 0 {
		f := len(frontier)
		// Count in parallel.
		par.Do(p, func(w int) {
			if cap(counts[w]) < f*8 {
				counts[w] = make([]int64, f*8)
			} else {
				counts[w] = counts[w][:f*8]
				for i := range counts[w] {
					counts[w][i] = 0
				}
			}
			if cap(octs[w]) < len(myBodies[w]) {
				octs[w] = make([]uint8, len(myBodies[w]))
			} else {
				octs[w] = octs[w][:len(myBodies[w])]
			}
			for i, b := range myBodies[w] {
				fc := myCell[w][i]
				o := frontier[fc].Cube.OctantOf(pos[b])
				octs[w][i] = uint8(o)
				counts[w][int(fc)*8+int(o)]++
			}
		})

		// Reduce and decide (cheap, serial: the frontier is tiny).
		newIndex := make([]int32, f*8) // >=0: new frontier idx; -1: nil; -2-k: subspace k
		var next []FrontierCell
		for fc := 0; fc < f; fc++ {
			for o := vec.Octant(0); o < vec.NOctants; o++ {
				var total int64
				for w := 0; w < p; w++ {
					total += counts[w][fc*8+int(o)]
				}
				slot := fc*8 + int(o)
				switch {
				case total == 0:
					newIndex[slot] = -1
				case int(total) > threshold && frontier[fc].Depth+1 < octree.MaxDepth:
					cr, _ := s.AllocCell(0, frontier[fc].Cube.Child(o), frontier[fc].Ref, 0)
					m.PerP[0].Cells++
					s.Cell(frontier[fc].Ref).SetChild(o, cr)
					newIndex[slot] = int32(len(next))
					next = append(next, FrontierCell{cr, frontier[fc].Cube.Child(o), frontier[fc].Depth + 1})
				default:
					newIndex[slot] = int32(-2 - len(subs))
					subs = append(subs, Subspace{
						Parent: frontier[fc].Ref,
						Oct:    o,
						Cube:   frontier[fc].Cube.Child(o),
						Depth:  frontier[fc].Depth + 1,
						Count:  int(total),
					})
				}
			}
		}

		// Re-bucket bodies in parallel: keep the ones still in flight,
		// stash the finalized ones per (processor, subspace).
		final := make([][][]int32, p)
		par.Do(p, func(w int) {
			final[w] = make([][]int32, len(subs))
			keepB := myBodies[w][:0]
			keepC := myCell[w][:0]
			for i, b := range myBodies[w] {
				slot := int(myCell[w][i])*8 + int(octs[w][i])
				ni := newIndex[slot]
				switch {
				case ni >= 0:
					keepB = append(keepB, b)
					keepC = append(keepC, ni)
				case ni <= -2:
					k := int(-2 - ni)
					final[w][k] = append(final[w][k], b)
				default:
					panic("core: body routed to an empty octant")
				}
			}
			myBodies[w] = keepB
			myCell[w] = keepC
		})
		// Concatenate per-processor buckets deterministically.
		for k := range subs {
			for w := 0; w < p; w++ {
				if len(final[w]) > k && len(final[w][k]) > 0 {
					subs[k].Bodies = append(subs[k].Bodies, final[w][k]...)
				}
			}
		}

		frontier = next
	}
	return subs
}

// partitionBoth runs the reference and the counting-sort partition on
// fresh stores over the same input and fails on the first difference in
// the subspaces they return or the prefix cells they allocate. The
// assignment must hold every body once: both sides read only the listed
// bodies, so a fixture that dropped some would pass on fewer. sc is the
// caller's scratch, reused across calls the way a resident builder reuses
// it across builds of different sizes.
func partitionBoth(t *testing.T, sc *spaceScratch, b *phys.Bodies, assign [][]int32, threshold int) []Subspace {
	t.Helper()
	if err := partition.Validate(assign, b.N()); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	p := len(assign)
	in := &Input{Bodies: b, Assign: assign}
	root := parallelBounds(in, newMetrics(SPACE, p))
	run := func(part func(*octree.Store, *octree.Tree, *Metrics) []Subspace) ([]Subspace, *octree.Store, *Metrics) {
		s := octree.NewStore(p, 8)
		m := newMetrics(SPACE, p)
		return part(s, octree.NewTree(s, 0, 0, root), m), s, m
	}
	want, ws, wm := run(func(s *octree.Store, tree *octree.Tree, m *Metrics) []Subspace {
		return refSpacePartition(s, tree, in, threshold, m)
	})
	got, gs, gm := run(func(s *octree.Store, tree *octree.Tree, m *Metrics) []Subspace {
		return spacePartition(sc, s, tree, in, threshold, m)
	})
	if len(got) != len(want) {
		t.Fatalf("%d subspaces, reference has %d", len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if !slices.Equal(g.Bodies, w.Bodies) {
			t.Fatalf("subspace %d: bodies %v, reference %v", k, g.Bodies, w.Bodies)
		}
		if g.Count > 0 && &g.Bodies[0] != &sc.fin[g.off] {
			t.Fatalf("subspace %d: off %d is not where its bodies lie in fin", k, g.off)
		}
		g.Bodies, w.Bodies, g.off = nil, nil, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("subspace %d: %+v, reference %+v", k, g, w)
		}
	}
	if gs.TotalCells() != ws.TotalCells() || gm.PerP[0].Cells != wm.PerP[0].Cells {
		t.Fatalf("%d prefix cells (%d counted), reference %d (%d counted)",
			gs.TotalCells(), gm.PerP[0].Cells, ws.TotalCells(), wm.PerP[0].Cells)
	}
	return got
}

// TestSpacePartitionMatchesReference: the counting sort returns, element
// for element, the subspaces the per-processor-list partition returned —
// same order, cubes, counts and per-subspace body order — on every mass
// model and on two clusters mid-collision, across sizes, processor
// counts, thresholds and assignments, the lopsided ones included: its
// slices are cut from the shared array, not from Assign. The thresholds
// are the leaf capacity and the paper's default, max(LeafCap, N/(4P))
// (th=0), which both run many rounds where the builds' own stops at
// ⌈N/P⌉.
func TestSpacePartitionMatchesReference(t *testing.T) {
	assigns := []struct {
		name string
		make func(b *phys.Bodies, p int) [][]int32
	}{
		{"spatial", SpatialAssign},
		{"even", func(b *phys.Bodies, p int) [][]int32 { return EvenAssign(b.N(), p) }},
		{"one-empty", func(b *phys.Bodies, p int) [][]int32 {
			a := SpatialAssign(b, p)
			if p > 1 { // processor p/2's list moves to another processor
				to := p - 1
				if to == p/2 {
					to = 0
				}
				a[to] = append(a[to], a[p/2]...)
				a[p/2] = nil
			}
			return a
		}},
		{"all-on-one", func(b *phys.Bodies, p int) [][]int32 {
			a := make([][]int32, p)
			a[p-1] = EvenAssign(b.N(), 1)[0]
			return a
		}},
	}
	type bodySet struct {
		name string
		make func(n int) *phys.Bodies
	}
	sets := []bodySet{
		// twoclusters' spheres moved from 6 apart to 1, their dense
		// cores overlapping as they merge.
		{"collision", func(n int) *phys.Bodies {
			b := phys.Generate(phys.ModelTwoClusters, n, 7)
			for i := range b.Pos {
				if i < n/2 {
					b.Pos[i].X -= 2.5
				} else {
					b.Pos[i].X += 2.5
				}
			}
			return b
		}},
	}
	for _, m := range phys.Models() {
		sets = append(sets, bodySet{m.String(), func(n int) *phys.Bodies { return phys.Generate(m, n, 7) }})
	}
	var sc spaceScratch
	for _, set := range sets {
		for _, n := range []int{1, 9, 513, 20000} {
			b := set.make(n)
			for _, p := range []int{1, 2, 3, 4, 7} {
				for _, as := range assigns {
					for _, th := range []int{0, 8} {
						t.Run(fmt.Sprintf("%s/n=%d/p=%d/%s/th=%d", set.name, n, p, as.name, th), func(t *testing.T) {
							if th == 0 {
								th = max(8, n/(4*p))
							}
							partitionBoth(t, &sc, b, as.make(b, p), th)
						})
					}
				}
			}
		}
	}
}

// TestSpacePartitionCoincidentBodies: more coincident bodies than the
// threshold cannot be separated, so the frontier follows them down to
// MaxDepth and finalizes them there as one subspace, as the reference
// does.
func TestSpacePartitionCoincidentBodies(t *testing.T) {
	const n, same = 60, 40
	b := phys.Generate(phys.ModelUniform, n, 3)
	for i := 1; i < same; i++ {
		b.Pos[i] = b.Pos[0]
	}
	var sc spaceScratch
	for _, p := range []int{1, 3} {
		subs := partitionBoth(t, &sc, b, EvenAssign(n, p), 8)
		deepest := subs[0]
		for _, ss := range subs {
			if ss.Depth > deepest.Depth {
				deepest = ss
			}
		}
		if deepest.Depth != octree.MaxDepth || deepest.Count != same {
			t.Errorf("p=%d: deepest subspace at depth %d holds %d bodies, want depth %d holding %d",
				p, deepest.Depth, deepest.Count, octree.MaxDepth, same)
		}
	}
}
