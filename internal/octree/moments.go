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
func momentsRec(s *Store, r Ref, depth int, d BodyData, acc *statsAcc) (mass float64, com vec.V3, n int32, cost int64) {
	if r.IsLeaf() {
		l := s.Leaf(r)
		leafMoments(l, d)
		acc.leaf(depth, len(l.Bodies))
		return l.Mass, l.COM, int32(len(l.Bodies)), l.Cost
	}
	c := s.Cell(r)
	acc.cell(depth)
	var wsum vec.V3
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		ch := c.Child(o)
		if ch.IsNil() {
			continue
		}
		m, cm, cn, cc := momentsRec(s, ch, depth+1, d, acc)
		mass += m
		wsum = wsum.MulAdd(m, cm)
		n += cn
		cost += cc
	}
	c.Mass, c.NBody, c.Cost = mass, n, cost
	if mass > 0 {
		c.COM = wsum.Scale(1 / mass)
	} else {
		c.COM = c.Cube.Center
	}
	cellQuad(s, c)
	return mass, c.COM, n, cost
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
// first level holding at least this many cells per worker, so the pull
// queue stays balanced even when a few subtrees hold most of the bodies.
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
// The walk descends level by level to the first level holding at least
// momentsTasksPerWorker·nWorkers cells — cut by level population, not by
// depth: a root cube sized by a few outliers keeps nearly every body in
// one cell for several levels. The workers pull that level's subtrees off
// one counter and run the serial recursion on each; the caller then
// combines the few cells above the cut, deepest first. A tree too shallow
// to reach the population is cut at its deepest level of cells. Walking
// from the root never meets the garbage the arenas accumulate (CAS
// losers, retired leaves, discarded local trees).
//
// The pass visits every live node exactly once, so it also counts them:
// the returned Stats equal CollectStats(t) without a second walk. Each
// worker counts into its own accumulator, merged after the join.
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
	// cells holds the levels in breadth-first order; [lo, hi) is the
	// current one, at depth len(levels)-1, and levels[k] is where depth
	// k starts.
	cells := []Ref{t.Root}
	levels := []int{0}
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

	tasks := cells[lo:hi]
	depth := len(levels) - 1
	var next atomic.Int64
	accs := make([]statsAcc, nWorkers)
	fork(nWorkers, func(w int) {
		// Counted on the worker's own stack, stored once: neighbouring
		// elements of accs share cache lines.
		var acc statsAcc
		for i := next.Add(1) - 1; i < int64(len(tasks)); i = next.Add(1) - 1 {
			momentsRec(s, tasks[i], depth, d, &acc)
		}
		accs[w] = acc
	})
	var acc statsAcc
	for w := range accs {
		acc.merge(&accs[w])
	}
	for i := lo - 1; i >= 0; i-- {
		if i < levels[depth] {
			depth--
		}
		c := s.Cell(cells[i])
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
	return acc.stats()
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
