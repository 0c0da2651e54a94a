package core

import (
	"slices"
	"sort"
	"sync"

	"partree/internal/octree"
	"partree/internal/par"
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
//
// This builder departs from the paper to pay less of the first two
// costs. It has no threshold of its own: its counting rounds stop once
// no subspace holds more than one processor's share of the bodies, or
// the leaf capacity if that is more (spaceRoundThreshold), so a subtree
// one processor sorts whole holds at most n/p bodies. And step 2 deals
// the subspaces largest first, each to the processor with the fewest
// bodies so far, rather than in Morton zones; a processor whose share
// runs dry takes another's (spaceClaims). The tree is the same.
// internal/simalg replays the paper's threshold, rounds and dealing.
type spaceBuilder struct {
	cfg     Config
	store   *octree.Store
	scratch spaceScratch
	// threshold, when positive, stops the counting rounds in place of
	// spaceRoundThreshold. Builds leave it 0; tests set it to claim the
	// subspaces of many-round partitions.
	threshold int
}

func newSpace(cfg Config) Builder {
	return &spaceBuilder{cfg: cfg, store: octree.NewStore(cfg.P, cfg.LeafCap)}
}

func (sb *spaceBuilder) Algorithm() Algorithm { return SPACE }

// Subspace and FrontierCell are exported because internal/simalg
// replays the paper's algorithm on the platform models over the same
// partition units; it keeps the paper's threshold and Morton-zone
// assignment of the subspaces itself.

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

func (sb *spaceBuilder) Store() *octree.Store { return sb.store }

func (sb *spaceBuilder) Build(in *Input) (*octree.Tree, *Metrics) {
	m := newMetrics(SPACE, in.P())
	return sb.build(in, m, nil), m
}

// spaceRoundThreshold is the largest frontier cell the counting rounds
// leave unsplit: one processor's share of the bodies, ⌈n/p⌉, or the
// leaf capacity, whichever is larger. A round sweeps every body still in
// flight and forks twice, while the sort below a subspace costs its
// claimant alone; so the rounds stop once no frontier cell holds more
// than a share. At p = 1 that is always one round, at the root.
func spaceRoundThreshold(leafCap, n, p int) int {
	return max(leafCap, (n+p-1)/p)
}

// build is SPACE's build into sb's store: the counting partition runs in
// the prepare phase (in sb's resident scratch), then the processors
// claim and sort the subspaces it left (spaceClaims). bodyLeaf is nil
// for SPACE; UPDATE passes its body→leaf map, which every sorted subtree
// publishes into, so its repairs resume against the fresh tree.
func (sb *spaceBuilder) build(in *Input, m *Metrics, bodyLeaf []uint32) *octree.Tree {
	s, sc, cfg := sb.store, &sb.scratch, sb.cfg
	p := in.P()
	var cols *[2][]vec.V3
	tree := runPhases(cfg, &sc.phaseScratch, in, m,
		func(root vec.Cube) *octree.Tree {
			th := sb.threshold
			if th <= 0 {
				th = spaceRoundThreshold(cfg.LeafCap, in.Bodies.N(), p)
			}
			tree := freshTree(s)(root)
			subs := spacePartition(sc, s, tree, in, th, m)
			cols = carried.borrow(sc.claims.deal(subs, p))
			return tree
		},
		func(_ *octree.Tree, w int) {
			c := claimant{
				ins:  inserter{s: s, arena: w, proc: w, pc: &m.PerP[w], bodyLeaf: bodyLeaf},
				q:    &sc.claims,
				pos:  in.Bodies.Pos,
				nxt:  sc.nxt,
				cols: cols,
			}
			for k := c.q.runs.Next(w); k >= 0; k = c.q.runs.Next(w) {
				c.claim(w, k)
			}
		})
	carried.give(cols)
	return tree
}

// spaceClaims is the insert phase's work list: the partition's
// subspaces dealt largest first, each to the processor with the fewest
// bodies so far, and listed by owner, processor w's share being
// order[share[w]:share[w+1]], largest first. The shares are the runs
// the processors take their subspaces from (so a steal takes the
// smallest left of the fullest share), and par.Runs hands each out once:
// every attach slot has one writer and the build takes no lock.
type spaceClaims struct {
	subs  []Subspace
	order []int
	share []int
	runs  par.Runs // over order, run w being share w
	load  []int    // bodies dealt to each processor
	slot  int      // carried positions per claimant; 0: each subspace's at its range of fin
}

// deal deals the partition's subspaces for one build, setting their
// Owner, and returns how many positions the carried columns must hold:
// p slots of the largest subspace, or every body if that is no more.
func (q *spaceClaims) deal(subs []Subspace, p int) int {
	q.subs = subs
	q.order = grown(q.order, len(subs))
	for i := range q.order {
		q.order[i] = i
	}
	slices.SortStableFunc(q.order, func(a, b int) int { return subs[b].Count - subs[a].Count })
	q.load = grown(q.load, p)
	clear(q.load)
	for _, i := range q.order {
		w := 0
		for v := 1; v < p; v++ {
			if q.load[v] < q.load[w] {
				w = v
			}
		}
		subs[i].Owner = w
		q.load[w] += subs[i].Count
	}
	slices.SortStableFunc(q.order, func(a, b int) int { return subs[a].Owner - subs[b].Owner })
	q.share = grown(q.share, p+1)
	q.share[0] = 0
	w, largest, n := 0, 0, 0
	for k, i := range q.order {
		for ; w < subs[i].Owner; w++ {
			q.share[w+1] = k
		}
		largest, n = max(largest, subs[i].Count), n+subs[i].Count
	}
	for ; w < p; w++ {
		q.share[w+1] = len(q.order)
	}
	q.runs.Reset(q.share)
	if p*largest < n {
		q.slot = largest
		return p * largest
	}
	q.slot = 0
	return n
}

// claimant is processor w's side of the insert phase.
type claimant struct {
	ins  inserter
	q    *spaceClaims
	pos  []vec.V3 // the bodies' positions, gathered once per subspace
	nxt  []int32  // the partition's, free once the rounds end: spare for the sorts
	cols *[2][]vec.V3
}

// claim sorts the subtree of the k-th subspace on the list, which w took
// from the runs, and attaches it — no locking: the slot is the
// subspace's alone. sortSubtree sorts its bodies in place,
// between its range of fin and the same range of nxt; the ranges are
// disjoint, so the processors share nothing. Its nodes go to the arena
// of the processor it was dealt to, whoever claims it: so each arena
// holds the same number of nodes every build, and a warm build installs
// no arena chunk.
//
// The bodies' positions travel with them, through w's slot of the
// carried columns: the sort reads them in order rather than by body
// index, which makes it about three times faster on 200 000 Plummer
// bodies.
func (c *claimant) claim(w, k int) {
	ss := &c.q.subs[c.q.order[k]]
	n, at := ss.Count, ss.off
	if c.q.slot > 0 {
		at = w * c.q.slot
	}
	pos, pos2 := c.cols[0][at:at+n], c.cols[1][at:at+n]
	for i, b := range ss.Bodies {
		pos[i] = c.pos[b]
	}
	ins := &c.ins
	ins.arena = ss.Owner
	node := ins.sortSubtree(ss.Cube, ss.Depth, ss.Parent, ss.Bodies, c.nxt[ss.off:][:n], pos, pos2)
	ins.publishLeaves(node)
	// Attach without locking: this slot is ours alone.
	ins.s.Cell(ss.Parent).SetChild(ss.Oct, node)
	ins.pc.BodiesBuilt += int64(n)
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
	if len(idx) <= ins.s.LeafCap || depth >= octree.MaxDepth {
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

// lender lends out pairs of columns a build sorts in. A build borrows
// what it needs and gives it back when it ends, so a process holds one
// pair per build (or per processor's share of one) in flight, not one
// per builder. It is a plain free list, not a sync.Pool: a pool may drop
// what it is given, and a warm build must allocate nothing body-sized.
type lender[T any] struct {
	mu   sync.Mutex
	free []*[2][]T
}

// carried lends the position columns the sorts carry their bodies'
// positions in: SPACE's insert phase (spaceClaims.deal sizes them) and
// each PARTREE processor's largest root octant (sortLocal). spares lends
// the index pairs sortLocal splits a processor's bodies into.
var (
	carried lender[vec.V3]
	spares  lender[int32]
)

// borrow lends a pair of columns of n elements, preferring the shortest
// one already that long, else the longest, so a small build does not
// take a long pair from a large one.
func (l *lender[T]) borrow(n int) *[2][]T {
	l.mu.Lock()
	var cols *[2][]T
	if len(l.free) > 0 {
		i := 0
		for j, c := range l.free {
			have, best := cap(c[0]), cap(l.free[i][0])
			if fits := have >= n; fits && (best < n || have < best) || !fits && have > best {
				i = j
			}
		}
		cols = l.free[i]
		l.free = slices.Delete(l.free, i, i+1)
	}
	l.mu.Unlock()
	if cols == nil {
		cols = new([2][]T)
	}
	cols[0], cols[1] = grown(cols[0], n), grown(cols[1], n)
	return cols
}

// give takes a borrowed pair back.
func (l *lender[T]) give(cols *[2][]T) {
	l.mu.Lock()
	l.free = append(l.free, cols)
	l.mu.Unlock()
}

// spaceScratch is the memory SPACE's counting sort works in. It lives on
// the builder, so a warm build allocates none of it: three body-sized
// index arrays, one octant byte per body, the frontier bookkeeping, the
// phase scratch whose runs its forks deal the slices by and the insert
// phase's claims; the subtree sorts reuse fin and nxt, and borrow their
// position columns (carried).
type spaceScratch struct {
	phaseScratch
	cur, nxt []int32 // bodies in flight this round, and their order next round
	fin      []int32 // finalized bodies; every Subspace.Bodies is a range of it
	oct      []uint8 // octant of cur[i] within its frontier cell, count → scatter
	// hist[s] is the frontier×8 histogram of slice s of cur (eachPiece);
	// the decide step turns it in place into the slice's write cursors.
	hist           [][]int32
	final          []bool // per frontier×8 slot: scatter to fin rather than nxt
	frontier, next []FrontierCell
	off, nextOff   []int // frontier cell fc owns cur[off[fc]:off[fc+1]]
	subs           []Subspace
	claims         spaceClaims
}

// grown returns s resized to n elements of unspecified content,
// reallocating only when its capacity falls short.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// eachPiece calls fn for every (frontier cell ∩ slice s), in array
// order, where k slices cut the in-flight bodies [0, off[last]) evenly —
// whatever Assign looked like, so no processor runs out of bodies while
// another still carries most of them.
func eachPiece(off []int, s, k int, fn func(fc, lo, hi int)) {
	live := off[len(off)-1]
	lo, hi := live*s/k, live*(s+1)/k
	for fc := sort.SearchInts(off, lo+1) - 1; lo < hi; fc++ {
		end := min(off[fc+1], hi)
		fn(fc, lo, end)
		lo = end
	}
}

// copyPiece copies elements [lo, hi) of the lists' concatenation into
// dst[lo:hi].
func copyPiece(dst []int32, lists [][]int32, lo, hi int) {
	base := 0
	for _, a := range lists {
		if s, e := max(lo, base), min(hi, base+len(a)); s < e {
			copy(dst[s:e], a[s-base:e-base])
		}
		base += len(a)
	}
}

// spacePartition runs the counting/subdivision rounds as a parallel
// stable counting sort (an MSD radix sort by octant) over one shared
// array of the bodies still in flight. The array starts as Assign[0],
// Assign[1], … concatenated, and every frontier cell owns a contiguous
// range of it. The array is cut into slicesPerProc·p even slices, which
// the processors take as par.Runs. A round is: count — each slice taken
// is histogrammed over the octants of the frontier cells it crosses (in
// the first round, after whoever took it copies it in from the lists);
// decide — serial, the frontier is tiny: octants above the threshold
// become prefix cells and next round's frontier, the rest finalized
// subspaces, and the slices' histograms become write cursors; scatter —
// the slices, dealt afresh, move their bodies to the next round's array
// or, finalized, to the range of fin their subspace was given. No
// synchronization beyond the fork/joins and the runs.
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
	k := slicesPerProc * p
	if len(sc.hist) != k {
		sc.hist = make([][]int32, k)
	}
	cur, nxt, fin, oct := sc.cur, sc.nxt, sc.fin, sc.oct
	runs := &sc.runs

	frontier := append(sc.frontier[:0], FrontierCell{tree.Root, tree.RootCube(), 0})
	off := append(sc.off[:0], 0, n)
	next, nextOff := sc.next, sc.nextOff
	subs := sc.subs[:0]
	nFin := 0
	for first := true; len(frontier) > 0; first = false {
		f := len(frontier)
		from, to := cur, nxt
		sc.dealSlices(p)
		m.fork(trace.PhasePartition, p, func(w int) {
			for s := runs.Next(w); s >= 0; s = runs.Next(w) {
				h := grown(sc.hist[s], f*vec.NOctants)
				clear(h)
				sc.hist[s] = h
				if first {
					copyPiece(from, in.Assign, n*s/k, n*(s+1)/k)
				}
				eachPiece(off, s, k, func(fc, lo, hi int) {
					cube := frontier[fc].Cube
					var cnt [vec.NOctants]int32
					for i := lo; i < hi; i++ {
						o := cube.OctantOf(pos[from[i]])
						oct[i] = uint8(o)
						cnt[o]++
					}
					copy(h[fc*vec.NOctants:], cnt[:])
				})
			}
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
				final[slot] = total <= threshold || cell.Depth+1 >= octree.MaxDepth
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

		sc.dealSlices(p)
		m.fork(trace.PhasePartition, p, func(w int) {
			for s := runs.Next(w); s >= 0; s = runs.Next(w) {
				h := sc.hist[s]
				eachPiece(off, s, k, func(fc, lo, hi int) {
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
			}
		})

		frontier, next = next, frontier
		off, nextOff = nextOff, off
		cur, nxt = nxt, cur
	}
	sc.frontier, sc.next, sc.off, sc.nextOff, sc.subs = frontier, next, off, nextOff, subs
	return subs
}
