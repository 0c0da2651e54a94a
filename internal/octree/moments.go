package octree

import (
	"sync/atomic"

	"partree/internal/par"
	"partree/internal/vec"
)

// BodyData bundles the per-body slices the moments passes read. Cost may
// be nil, in which case each body counts 1 unit (first time step).
type BodyData struct {
	Pos  []vec.V3
	Mass []float64
	Cost []int64
}

// CostOf returns body b's force-calculation cost (1 when no costs are set).
func (d BodyData) CostOf(b int32) int64 {
	if d.Cost == nil {
		return 1
	}
	return d.Cost[b]
}

// ComputeMomentsSerial fills Mass/COM/NBody/Cost bottom-up over the whole
// tree with a single post-order traversal, and returns the Stats of the
// nodes it visited. Deterministic: children are combined in octant
// order, leaf bodies in stored order.
func ComputeMomentsSerial(t *Tree, d BodyData) Stats {
	var acc statsAcc
	if !t.Root.IsNil() {
		momentsRec(t.Store, t.Root, 0, d, &acc)
	}
	return acc.stats()
}

// momentsRec computes the moments of the subtree under r, which hangs at
// the given depth, counting every node it visits into acc.
func momentsRec(s *Store, r Ref, depth int, d BodyData, acc *statsAcc) {
	if r.IsLeaf() {
		l := s.Leaf(r)
		leafMoments(l, d)
		acc.leaf(depth, len(l.Bodies))
		return
	}
	c := s.Cell(r)
	acc.cell(depth)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := c.Child(o); !ch.IsNil() {
			momentsRec(s, ch, depth+1, d, acc)
		}
	}
	combineChildren(s, c)
}

// cellQuad fills c.Quad from its children's completed moments by
// parallel-axis transport to c.COM.
func cellQuad(s *Store, c *Cell) {
	c.Quad = Quadrupole{}
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		ch := c.Child(o)
		if ch.IsNil() {
			continue
		}
		if ch.IsLeaf() {
			l := s.Leaf(ch)
			c.Quad.AddShifted(l.Mass, l.Quad, l.COM.Sub(c.COM))
		} else {
			cc := s.Cell(ch)
			c.Quad.AddShifted(cc.Mass, cc.Quad, cc.COM.Sub(c.COM))
		}
	}
}

func leafMoments(l *Leaf, d BodyData) {
	var mass float64
	var wsum vec.V3
	var cost int64
	for _, b := range l.Bodies {
		m := d.Mass[b]
		mass += m
		wsum = wsum.MulAdd(m, d.Pos[b])
		cost += d.CostOf(b)
	}
	l.Mass, l.Cost = mass, cost
	if mass > 0 {
		l.COM = wsum.Scale(1 / mass)
	} else {
		l.COM = l.Cube.Center
	}
	l.Quad = Quadrupole{}
	for _, b := range l.Bodies {
		l.Quad.AddPoint(d.Mass[b], d.Pos[b].Sub(l.COM))
	}
}

// momentsTasksPerWorker sizes the parallel cut: the tree is cut at the
// first level holding at least this many cells per worker, so a run's
// tail can be balanced by stealing one subtree at a time.
const momentsTasksPerWorker = 64

// ComputeMomentsParallel computes the same moments — bit for bit, since
// every node is still combined from its children in octant order — with
// nWorkers goroutines; one worker is ComputeMomentsSerial.
func ComputeMomentsParallel(t *Tree, d BodyData, nWorkers int) Stats {
	return ComputeMomentsFork(t, d, nWorkers, par.Do)
}

// ComputeMomentsFork is ComputeMomentsParallel over the caller's
// fork/join: fork(p, fn) must run fn(0) … fn(p-1) and return once all have
// (core's phase driver passes one that times every share).
//
// The workers run the serial recursion on the subtrees of the cut
// (momentsTop), each on its own run of them (subtreeRuns), and whoever
// completes the last listed child of a cell above the cut combines that
// cell, doing the leaves that hang off it, so the top of the tree is
// summed inside the fork rather than after it. Walking from the root
// never meets the arenas' garbage (CAS losers, retired leaves, discarded
// local trees), and visits every live node once, so the returned Stats
// equal CollectStats(t) without a second walk.
func ComputeMomentsFork(t *Tree, d BodyData, nWorkers int, fork func(p int, fn func(w int))) Stats {
	if t.Root.IsNil() {
		return Stats{}
	}
	if nWorkers <= 1 || !t.Root.IsCell() {
		var st Stats
		fork(1, func(int) { st = ComputeMomentsSerial(t, d) })
		return st
	}
	s := t.Store
	top := newMomentsTop(s, t.Root, nWorkers)
	runs := newSubtreeRuns(len(top.tasks), nWorkers)
	accs := make([]statsAcc, nWorkers)
	fork(nWorkers, func(w int) {
		// Counted on the worker's own stack, stored once: neighbouring
		// elements of accs share cache lines.
		var acc statsAcc
		for i := runs.next(w); i >= 0; i = runs.next(w) {
			k := top.tasks[i]
			momentsRec(s, top.cells[k], int(top.depth[k]), d, &acc)
			top.complete(s, k, d, &acc)
		}
		accs[w] = acc
	})
	var acc statsAcc
	for w := range accs {
		acc.merge(&accs[w])
	}
	return acc.stats()
}

// momentsTop is the top of the tree as the parallel moments pass sees
// it: the cells cutLevels lists, breadth-first, with parent[k] the index
// of cells[k]'s parent (-1 for the root), depth[k] its depth and
// pending[k] the number of its listed children not yet complete. The
// tasks are the listed cells with no listed child — the cut level's, and
// any above it whose children are all leaves.
type momentsTop struct {
	cells   []Ref
	parent  []int32
	depth   []int32
	pending []atomic.Int32
	tasks   []int32
}

func newMomentsTop(s *Store, root Ref, nWorkers int) *momentsTop {
	cells, levels := cutLevels(s, root, nWorkers)
	n := len(cells)
	top := &momentsTop{cells: cells, parent: make([]int32, n), depth: make([]int32, n), pending: make([]atomic.Int32, n)}
	top.parent[0] = -1
	next := 1 // cutLevels lists a level's cells in the order of their parents
	for lv, lo := range levels {
		hi := n
		if lv+1 < len(levels) {
			hi = levels[lv+1]
		}
		for k := lo; k < hi; k++ {
			top.depth[k] = int32(lv)
			listed := 0
			if hi < n {
				c := s.Cell(cells[k])
				for o := vec.Octant(0); o < vec.NOctants; o++ {
					if c.Child(o).IsCell() {
						top.parent[next+listed] = int32(k)
						listed++
					}
				}
			}
			next += listed
			top.pending[k].Store(int32(listed))
			if listed == 0 {
				top.tasks = append(top.tasks, int32(k))
			}
		}
	}
	return top
}

// complete records that the moments of listed cell k are done, and
// combines every ancestor it was the last pending child of, counting
// each, and the leaves it sums on the way, into acc. The atomic count
// orders every other child's moments before the combine that reads them.
func (top *momentsTop) complete(s *Store, k int32, d BodyData, acc *statsAcc) {
	for k = top.parent[k]; k >= 0 && top.pending[k].Add(-1) == 0; k = top.parent[k] {
		c := s.Cell(top.cells[k])
		depth := int(top.depth[k])
		acc.cell(depth)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); ch.IsLeaf() {
				l := s.Leaf(ch)
				leafMoments(l, d)
				acc.leaf(depth+1, len(l.Bodies))
			}
		}
		combineChildren(s, c)
	}
}

// cutLevels lists breadth-first the cells of every level of the tree
// under the cell root down to the first holding at least
// momentsTasksPerWorker·nWorkers cells, or to its deepest; depth k starts
// at cells[levels[k]], and the last level's subtrees are a parallel
// pass's tasks. Population, not depth: a root cube sized by a few
// outliers keeps nearly every body in one cell for several levels.
func cutLevels(s *Store, root Ref, nWorkers int) (cells []Ref, levels []int) {
	cells, levels = []Ref{root}, []int{0}
	lo, hi := 0, 1
	for hi-lo < momentsTasksPerWorker*nWorkers {
		for _, r := range cells[lo:hi] {
			c := s.Cell(r)
			for o := vec.Octant(0); o < vec.NOctants; o++ {
				if ch := c.Child(o); ch.IsCell() {
					cells = append(cells, ch)
				}
			}
		}
		if len(cells) == hi {
			break
		}
		lo, hi = hi, len(cells)
		levels = append(levels, lo)
	}
	return cells, levels
}

// subtreeRuns deals n subtrees to p workers as p contiguous runs, so
// two workers never alternate on neighbours and write the same cache
// lines. Run w is one padded word packing [lo, hi): worker w takes from
// its front; a worker whose run is empty steals single subtrees from the
// back of the run with the most left.
type subtreeRuns []struct {
	span atomic.Uint64 // lo | hi<<32
	_    [56]byte
}

func newSubtreeRuns(n, p int) subtreeRuns {
	rs := make(subtreeRuns, p)
	for w := range rs {
		rs[w].span.Store(uint64(n*w/p) | uint64(n*(w+1)/p)<<32)
	}
	return rs
}

// next claims worker w's next subtree, or -1 once every run (they only shrink) is empty.
func (rs subtreeRuns) next(w int) int {
	own := &rs[w].span
	for v := own.Load(); uint32(v) < uint32(v>>32); v = own.Load() {
		if own.CompareAndSwap(v, v+1) {
			return int(uint32(v))
		}
	}
	for {
		victim, most, vv := -1, uint32(0), uint64(0)
		for i := range rs {
			v := rs[i].span.Load()
			if left := uint32(v>>32) - uint32(v); left > most {
				victim, most, vv = i, left, v
			}
		}
		if victim < 0 {
			return -1
		}
		if rs[victim].span.CompareAndSwap(vv, vv-1<<32) {
			return int(vv>>32) - 1
		}
	}
}

// combineChildren fills c's moments from its (completed) children in
// octant order, so the floating-point result is independent of which
// worker performs the combination.
func combineChildren(s *Store, c *Cell) {
	var mass float64
	var wsum vec.V3
	var n int32
	var cost int64
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		ch := c.Child(o)
		if ch.IsNil() {
			continue
		}
		if ch.IsLeaf() {
			l := s.Leaf(ch)
			mass += l.Mass
			wsum = wsum.MulAdd(l.Mass, l.COM)
			n += int32(len(l.Bodies))
			cost += l.Cost
		} else {
			cc := s.Cell(ch)
			mass += cc.Mass
			wsum = wsum.MulAdd(cc.Mass, cc.COM)
			n += cc.NBody
			cost += cc.Cost
		}
	}
	c.Mass, c.NBody, c.Cost = mass, n, cost
	if mass > 0 {
		c.COM = wsum.Scale(1 / mass)
	} else {
		c.COM = c.Cube.Center
	}
	cellQuad(s, c)
}
