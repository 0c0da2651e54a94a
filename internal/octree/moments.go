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
// The workers run the serial recursion on the subtrees of the store's
// cut (momentsTop), each on its own run of them (par.Runs), and whoever
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
	top := s.cut(t.Root, nWorkers)
	runs := par.EvenRuns(len(top.tasks), nWorkers)
	accs := make([]statsAcc, nWorkers)
	fork(nWorkers, func(w int) {
		// Counted on the worker's own stack, stored once: neighbouring
		// elements of accs share cache lines.
		var acc statsAcc
		for i := runs.Next(w); i >= 0; i = runs.Next(w) {
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

// momentsTop is the top of a tree as the parallel passes cut it (the
// moments pass and RescaleFork): breadth-first from the root, the cells
// of every level down to the first holding at least
// momentsTasksPerWorker·nWorkers cells, or to the deepest level of
// cells, with parent[k] the index of cells[k]'s parent (-1 for the
// root), depth[k] its depth and pending[k] the number of its listed
// children not yet complete. The tasks are the listed cells with no
// listed child — the cut level's, and any above it whose children are
// all leaves. Population, not depth: a root cube sized by a few outliers
// keeps nearly every body in one cell for several levels.
type momentsTop struct {
	cells   []Ref
	parent  []int32
	depth   []int32
	pending []atomic.Int32
	tasks   []int32
}

// cut walks the tree under the cell root into the store's momentsTop,
// rebuilt in place, and returns it. It is valid until the next cut of
// the store.
func (s *Store) cut(root Ref, nWorkers int) *momentsTop {
	top := &s.top
	top.cells = append(top.cells[:0], root)
	top.parent = append(top.parent[:0], -1)
	top.depth = append(top.depth[:0], 0)
	for lo, hi := 0, 1; hi-lo < momentsTasksPerWorker*nWorkers && hi > lo; {
		for k := lo; k < hi; k++ {
			c := s.Cell(top.cells[k])
			for o := vec.Octant(0); o < vec.NOctants; o++ {
				if ch := c.Child(o); ch.IsCell() {
					top.cells = append(top.cells, ch)
					top.parent = append(top.parent, int32(k))
					top.depth = append(top.depth, top.depth[k]+1)
				}
			}
		}
		lo, hi = hi, len(top.cells)
	}
	n := len(top.cells)
	if cap(top.pending) < n {
		top.pending = make([]atomic.Int32, n)
	}
	top.pending = top.pending[:n]
	for k := range top.pending {
		top.pending[k].Store(0)
	}
	for _, k := range top.parent[1:] {
		top.pending[k].Add(1)
	}
	top.tasks = top.tasks[:0]
	for k := range top.pending {
		if top.pending[k].Load() == 0 {
			top.tasks = append(top.tasks, int32(k))
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
}
