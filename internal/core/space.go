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
//  3. Each processor privately builds one subtree per assigned subspace —
//     the same counting sort by octant, continued inside the subspace
//     down to the leaves — and attaches it to the global tree without any
//     locking: a given attachment slot belongs to exactly one processor.
//
// Locking in the tree-build phase is eliminated entirely, at the cost of
// the counting passes, some load imbalance, and the loss of locality
// between the build partition and the force partition.
type spaceBuilder struct {
	cfg     Config
	store   *octree.Store
	scratch spaceScratch
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
	off    int // Bodies is fin[off:off+Count] of the partition's scratch
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
	return sb.build(in, m, nil), m
}

// build is SPACE's build into sb's store: the counting partition runs in
// the prepare phase (in sb's resident scratch), then every processor
// sorts and attaches the subtrees of its subspaces. bodyLeaf is nil for
// SPACE; UPDATE passes its body→leaf map, which every attached subtree
// publishes into, so its repairs resume against the fresh tree.
func (sb *spaceBuilder) build(in *Input, m *Metrics, bodyLeaf []uint32) *octree.Tree {
	s, sc, cfg := sb.store, &sb.scratch, sb.cfg
	p := in.P()
	var subs []Subspace
	var th int
	return runPhases(cfg, in, m,
		func(root vec.Cube) *octree.Tree {
			th = SpaceThreshold(cfg.SpaceThreshold, cfg.LeafCap, in.Bodies.N(), p)
			tree := freshTree(s)(root)
			subs = spacePartition(sc, s, tree, in, th, m)
			AssignSubspaces(root, subs, p)
			sc.pos = grown(sc.pos, p)
			return tree
		},
		func(_ *octree.Tree, w int) {
			ins := &inserter{s: s, arena: w, proc: w, pc: &m.PerP[w], bodyLeaf: bodyLeaf}
			spaceAttach(in.Bodies.Pos, subs, sc.nxt, &sc.pos[w], th, w, ins)
		})
}

// spaceAttach builds and attaches one subtree per finalized subspace
// owned by processor w — no locking: a given attachment slot belongs to
// exactly one processor. sortSubtree sorts each subspace's bodies in
// place, between its range of the partition's fin and the same range of
// spare, a body-sized array the counting rounds are done with; the
// ranges are disjoint, so the processors share nothing.
//
// The bodies' positions travel with them, through buf, w's pair of
// position buffers: the sort reads them in order rather than by body
// index, which makes it about three times faster on 200 000 Plummer
// bodies. The pair is sized to at least the threshold, which bounds
// every subspace above MaxDepth, so a warm build does not regrow it.
func spaceAttach(pos []vec.V3, subs []Subspace, spare []int32, buf *[2][]vec.V3, threshold, w int, ins *inserter) {
	for i := range subs {
		ss := &subs[i]
		if ss.Owner != w {
			continue
		}
		n := ss.Count
		if cap(buf[0]) < n {
			buf[0], buf[1] = make([]vec.V3, max(n, threshold)), make([]vec.V3, max(n, threshold))
		}
		from, to := buf[0][:n], buf[1][:n]
		for k, b := range ss.Bodies {
			from[k] = pos[b]
		}
		node := ins.sortSubtree(ss.Cube, ss.Depth, ss.Parent, ss.Bodies, spare[ss.off:][:n], from, to)
		ins.publishLeaves(node)
		// Attach without locking: this slot is ours alone.
		ins.s.Cell(ss.Parent).SetChild(ss.Oct, node)
		ins.pc.Attached++
		ins.pc.BodiesBuilt += int64(n)
	}
}

// sortSubtree emits, in pre-order into ins's arena, the subtree of the
// bodies idx (positions pos, in the same order) over cube at depth under
// parent, and returns its root. A node is a leaf iff it holds at most
// LeafCap bodies or sits at MaxDepth — where insertion would have stopped
// splitting. A cell counts its bodies by octant, scatters them stably
// into the other pair (spare, pos2), and recurses into each non-empty
// octant with the pairs swapped; both pairs are left in no particular
// order.
//
// The octant test is octree.BuildSerial's, so the cells are the serial
// tree's; each leaf inserts its run (in assignment order, not index
// order) in the index order BuildSerial inserts in, so the moments come
// out bit for bit the same. No leaf is allocated only to be split.
func (ins *inserter) sortSubtree(cube vec.Cube, depth int, parent octree.Ref, idx, spare []int32, pos, pos2 []vec.V3) octree.Ref {
	if len(idx) <= ins.s.LeafCap || depth >= ins.s.MaxDepth {
		lr, l := ins.allocLeaf(cube, parent)
		for _, b := range idx {
			l.Bodies = insertInOrder(l.Bodies, b)
		}
		return lr
	}
	cr, c := ins.allocCell(cube, parent)
	var start [vec.NOctants + 1]int
	for _, p := range pos {
		start[cube.OctantOf(p)+1]++
	}
	for o := 1; o <= vec.NOctants; o++ {
		start[o] += start[o-1]
	}
	cursor := start
	for i, p := range pos {
		o := cube.OctantOf(p)
		spare[cursor[o]], pos2[cursor[o]] = idx[i], p
		cursor[o]++
	}
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		lo, hi := start[o], start[o+1]
		if lo < hi {
			c.SetChild(o, ins.sortSubtree(cube.Child(o), depth+1, cr, spare[lo:hi], idx[lo:hi], pos2[lo:hi], pos[lo:hi]))
		}
	}
	return cr
}

// spaceScratch is the memory SPACE's counting sort works in. It lives on
// the builder, so a warm build allocates none of it: three body-sized
// index arrays, one octant byte per body and the frontier bookkeeping;
// the subtree sorts reuse fin and nxt, and add a pair of position
// buffers per processor.
type spaceScratch struct {
	cur, nxt []int32 // bodies in flight this round, and their order next round
	fin      []int32 // finalized bodies; every Subspace.Bodies is a range of it
	oct      []uint8 // octant of cur[i] within its frontier cell, count → scatter
	// hist[w] is processor w's frontier×8 histogram of its slice of cur;
	// the decide step turns it in place into w's write cursors.
	hist           [][]int32
	final          []bool // per frontier×8 slot: scatter to fin rather than nxt
	frontier, next []FrontierCell
	off, nextOff   []int // frontier cell fc owns cur[off[fc]:off[fc+1]]
	subs           []Subspace
	pos            [][2][]vec.V3 // pos[w] is processor w's, for its subtree sorts
}

// grown returns s resized to n elements of unspecified content,
// reallocating only when its capacity falls short.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// eachPiece calls fn for every (frontier cell ∩ processor w's slice), in
// array order, where the p slices cut the in-flight bodies [0, off[last])
// evenly — whatever Assign looked like, so no processor runs out of
// bodies while another still carries most of them.
func eachPiece(off []int, w, p int, fn func(fc, lo, hi int)) {
	live := off[len(off)-1]
	lo, hi := live*w/p, live*(w+1)/p
	for fc := sort.SearchInts(off, lo+1) - 1; lo < hi; fc++ {
		end := min(off[fc+1], hi)
		fn(fc, lo, end)
		lo = end
	}
}

// spacePartition runs the counting/subdivision rounds as a parallel
// stable counting sort (an MSD radix sort by octant) over one shared
// array of the bodies still in flight. The array starts as Assign[0],
// Assign[1], … concatenated, and every frontier cell owns a contiguous
// range of it. A round is: count — each processor histograms its slice
// over the octants of the frontier cells it crosses; decide — serial,
// the frontier is tiny: octants above the threshold become prefix cells
// and next round's frontier, the rest finalized subspaces, and the p
// histograms become write cursors; scatter — the same slices move their
// bodies to the next round's array or, finalized, to the range of fin
// their subspace was given. No synchronization beyond the fork/joins.
//
// The sort is stable and the slices are in array order, so a subspace's
// bodies come out ordered by (processor, position in its Assign list) —
// the order per-processor lists concatenated by processor would give,
// which simalg's replay produces and the goldens pin.
func spacePartition(sc *spaceScratch, s *octree.Store, tree *octree.Tree, in *Input, threshold int, m *Metrics) []Subspace {
	p := in.P()
	pos := in.Bodies.Pos
	n := 0
	for _, a := range in.Assign {
		n += len(a)
	}
	sc.cur, sc.nxt, sc.fin, sc.oct = grown(sc.cur, n), grown(sc.nxt, n), grown(sc.fin, n), grown(sc.oct, n)
	if len(sc.hist) != p {
		sc.hist = make([][]int32, p)
	}
	cur, nxt, fin, oct := sc.cur, sc.nxt, sc.fin, sc.oct
	filled := 0
	for _, a := range in.Assign {
		filled += copy(cur[filled:], a)
	}

	frontier := append(sc.frontier[:0], FrontierCell{tree.Root, tree.RootCube(), 0})
	off := append(sc.off[:0], 0, n)
	next, nextOff := sc.next, sc.nextOff
	subs := sc.subs[:0]
	nFin := 0
	for len(frontier) > 0 {
		f := len(frontier)
		from, to := cur, nxt
		m.fork(trace.PhasePartition, p, func(w int) {
			h := grown(sc.hist[w], f*vec.NOctants)
			clear(h)
			sc.hist[w] = h
			eachPiece(off, w, p, func(fc, lo, hi int) {
				cube := frontier[fc].Cube
				var cnt [vec.NOctants]int32
				for i := lo; i < hi; i++ {
					o := cube.OctantOf(pos[from[i]])
					oct[i] = uint8(o)
					cnt[o]++
				}
				copy(h[fc*vec.NOctants:], cnt[:])
			})
		})

		final := grown(sc.final, f*vec.NOctants)
		sc.final = final
		next, nextOff = next[:0], append(nextOff[:0], 0)
		nNext := 0
		for fc, cell := range frontier {
			for o := vec.Octant(0); o < vec.NOctants; o++ {
				slot := fc*vec.NOctants + int(o)
				total := 0
				for _, h := range sc.hist {
					total += int(h[slot])
				}
				if total == 0 {
					continue
				}
				var base int
				final[slot] = total <= threshold || cell.Depth+1 >= s.MaxDepth
				if final[slot] {
					base, nFin = nFin, nFin+total
					subs = append(subs, Subspace{
						Parent: cell.Ref,
						Oct:    o,
						Cube:   cell.Cube.Child(o),
						Depth:  cell.Depth + 1,
						Count:  total,
						Bodies: fin[base:nFin:nFin],
						off:    base,
					})
				} else {
					cr, _ := s.AllocCell(0, cell.Cube.Child(o), cell.Ref, 0)
					m.PerP[0].Cells++
					s.Cell(cell.Ref).SetChild(o, cr)
					next = append(next, FrontierCell{cr, cell.Cube.Child(o), cell.Depth + 1})
					base, nNext = nNext, nNext+total
					nextOff = append(nextOff, nNext)
				}
				for _, h := range sc.hist {
					h[slot], base = int32(base), base+int(h[slot])
				}
			}
		}

		m.fork(trace.PhasePartition, p, func(w int) {
			h := sc.hist[w]
			eachPiece(off, w, p, func(fc, lo, hi int) {
				cursor := h[fc*vec.NOctants:][:vec.NOctants]
				var dst [vec.NOctants][]int32
				for o := range dst {
					dst[o] = to
					if final[fc*vec.NOctants+o] {
						dst[o] = fin
					}
				}
				for i := lo; i < hi; i++ {
					o := oct[i]
					dst[o][cursor[o]] = from[i]
					cursor[o]++
				}
			})
		})

		frontier, next = next, frontier
		off, nextOff = nextOff, off
		cur, nxt = nxt, cur
	}
	sc.frontier, sc.next, sc.off, sc.nextOff, sc.subs = frontier, next, off, nextOff, subs
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
