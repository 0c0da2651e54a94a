package core

import (
	"sort"

	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/trace"
	"partree/internal/vec"
)

// spaceBuilder implements SPACE, the paper's new algorithm. Tree building
// gets its own *spatial* partition, different from the costzones body
// partition used by every other phase:
//
//  1. The domain is recursively subdivided, counting bodies per subspace
//     in parallel, until every subspace holds at most a threshold number
//     of bodies. The cells created along the way are exactly the top of
//     the final octree ("the UPPER part").
//  2. The resulting subspaces are assigned to processors (balanced by
//     body count).
//  3. Each processor privately builds one subtree per assigned subspace
//     and attaches it to the global tree without any locking: a given
//     attachment slot belongs to exactly one processor.
//
// Locking in the tree-build phase is eliminated entirely, at the cost of
// the counting passes, some load imbalance, and the loss of locality
// between the build partition and the force partition.
type spaceBuilder struct {
	cfg   Config
	store *octree.Store
}

func newSpace(cfg Config) Builder {
	return &spaceBuilder{cfg: cfg, store: octree.NewStore(cfg.P, cfg.LeafCap)}
}

func (sb *spaceBuilder) Algorithm() Algorithm { return SPACE }

// SPACE's pure decisions — what a subspace and a frontier cell are, the
// subdivision threshold, the subspace-to-processor assignment — are
// exported because internal/simalg replays the same algorithm on the
// platform models: it charges memory and barriers its own way, but must
// decide exactly what the native builder decides.

// Subspace is one finalized partition unit: an unfilled child slot of a
// prefix cell, plus the bodies that belong in it.
type Subspace struct {
	Parent octree.Ref // prefix cell the subtree will attach to
	Oct    vec.Octant // slot within Parent
	Cube   vec.Cube
	Depth  int // depth of the subspace node itself
	Count  int
	Owner  int
	Bodies []int32
}

// FrontierCell is a prefix cell the counting rounds may still subdivide.
type FrontierCell struct {
	Ref   octree.Ref
	Cube  vec.Cube
	Depth int
}

// SpaceThreshold resolves the subdivision threshold for a SPACE-style
// partition: the configured value, or the documented default n/(4·p),
// never below the leaf capacity.
func SpaceThreshold(configured, leafCap, n, p int) int {
	th := configured
	if th <= 0 {
		th = n / (4 * p)
	}
	if th < leafCap {
		th = leafCap
	}
	return th
}

func (sb *spaceBuilder) Store() *octree.Store { return sb.store }

func (sb *spaceBuilder) Build(in *Input) (*octree.Tree, *Metrics) {
	m := newMetrics(SPACE, in.P())
	s := sb.store
	tree := spaceBuild(s, sb.cfg, in, m, func(w int, tp *trace.P) *inserter {
		return &inserter{s: s, arena: w, proc: w, pc: &m.PerP[w], tp: tp}
	})
	return tree, m
}

// spaceBuild is SPACE's build over store s: the counting partition runs
// in the prepare phase, then every processor builds and attaches the
// subtrees of its subspaces. mkIns supplies each worker's inserter, so
// callers control whether a bodyLeaf map is maintained (UPDATE's session
// fallback rebuild threads its persistent map through here; plain SPACE
// passes none).
func spaceBuild(s *octree.Store, cfg Config, in *Input, m *Metrics,
	mkIns func(w int, tp *trace.P) *inserter) *octree.Tree {

	p := in.P()
	var subs []Subspace
	return runPhases(cfg, in, m,
		func(root vec.Cube, tr *trace.Recorder) *octree.Tree {
			tree := freshTree(s)(root, tr)
			subs = spacePartition(s, tree, in, SpaceThreshold(cfg.SpaceThreshold, cfg.LeafCap, in.Bodies.N(), p), m, tr)
			AssignSubspaces(root, subs, p)
			return tree
		},
		func(_ *octree.Tree, w int, tp *trace.P) {
			spaceAttach(s, in, subs, w, mkIns(w, tp))
		})
}

// spaceAttach builds and attaches one subtree per finalized subspace
// owned by processor w — no locking: a given attachment slot belongs to
// exactly one processor.
func spaceAttach(s *octree.Store, in *Input, subs []Subspace, w int, ins *inserter) {
	pos := in.Bodies.Pos
	for i := range subs {
		ss := &subs[i]
		if ss.Owner != w {
			continue
		}
		var node octree.Ref
		if ss.Count <= s.LeafCap || ss.Depth >= s.MaxDepth {
			lr, l := ins.allocLeaf(ss.Cube, ss.Parent)
			l.Bodies = append(l.Bodies, ss.Bodies...)
			node = lr
		} else {
			cr, _ := ins.allocCell(ss.Cube, ss.Parent)
			for _, b := range ss.Bodies {
				ins.insertPrivate(cr, ss.Depth, b, pos)
			}
			node = cr
		}
		ins.publishLeaves(node)
		// Attach without locking: this slot is ours alone.
		s.Cell(ss.Parent).SetChild(ss.Oct, node)
		ins.pc.Attached++
		ins.pc.BodiesBuilt += int64(ss.Count)
	}
}

// spacePartition runs the parallel counting/subdivision rounds. Each round,
// every processor histograms its own bodies over the current frontier
// cells' octants (no synchronization beyond the round barrier); frontier
// children above the threshold become new prefix cells, the rest become
// finalized subspaces with their body lists bucketed per processor.
func spacePartition(s *octree.Store, tree *octree.Tree, in *Input, threshold int, m *Metrics, tr *trace.Recorder) []Subspace {
	p := in.P()
	pos := in.Bodies.Pos

	frontier := []FrontierCell{{tree.Root, tree.RootCube(), 0}}

	// Per-processor routing state: which frontier cell each of my bodies
	// currently belongs to.
	myBodies := make([][]int32, p)
	myCell := make([][]int32, p) // frontier index per body
	tracedDo(tr, trace.PhasePartition, p, func(w int) {
		myBodies[w] = append([]int32(nil), in.Assign[w]...)
		myCell[w] = make([]int32, len(myBodies[w]))
	})

	var subs []Subspace
	counts := make([][]int64, p) // per proc: frontier×8 histogram
	octs := make([][]uint8, p)   // per proc: octant of each body this round

	for len(frontier) > 0 {
		f := len(frontier)
		// Count in parallel.
		tracedDo(tr, trace.PhasePartition, p, func(w int) {
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
				case int(total) > threshold && frontier[fc].Depth+1 < s.MaxDepth:
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
		tracedDo(tr, trace.PhasePartition, p, func(w int) {
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

// AssignSubspaces assigns subspaces to processors in spatially contiguous
// groups of roughly equal body count: sorted by Morton key (octree
// depth-first order) and cut into P cost zones, the grouping the paper's
// Figure 5 draws. Contiguity limits the locality loss SPACE trades for
// its zero locking.
func AssignSubspaces(root vec.Cube, subs []Subspace, p int) {
	k := partition.NewKeyer(root)
	order := make([]int, len(subs))
	keys := make([]uint64, len(subs))
	total := 0
	for i := range order {
		order[i] = i
		keys[i] = k.Key(subs[i].Cube.Center)
		total += subs[i].Count
	}
	sort.Slice(order, func(a, b int) bool {
		if ka, kb := keys[order[a]], keys[order[b]]; ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	if total == 0 {
		return
	}
	acc := 0
	for _, i := range order {
		w := acc * p / total
		if w >= p {
			w = p - 1
		}
		subs[i].Owner = w
		acc += subs[i].Count
	}
}
