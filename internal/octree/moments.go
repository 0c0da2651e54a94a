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
// tree with a single post-order traversal. Deterministic: children are
// combined in octant order, leaf bodies in stored order.
func ComputeMomentsSerial(t *Tree, d BodyData) {
	if t.Root.IsNil() {
		return
	}
	momentsRec(t.Store, t.Root, d)
}

func momentsRec(s *Store, r Ref, d BodyData) (mass float64, com vec.V3, n int32, cost int64) {
	if r.IsLeaf() {
		l := s.Leaf(r)
		leafMoments(l, d)
		return l.Mass, l.COM, int32(len(l.Bodies)), l.Cost
	}
	c := s.Cell(r)
	var wsum vec.V3
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		ch := c.Child(o)
		if ch.IsNil() {
			continue
		}
		m, cm, cn, cc := momentsRec(s, ch, d)
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

// isLive reports whether node r is currently linked into tree t. Arenas
// accumulate garbage nodes (CAS losers from concurrent builds, leaves
// retired by subdivision or by UPDATE); a node is live iff some child
// slot of its parent still points at it, or it is the root. Garbage is
// never pointed to, so one level suffices. The slot scan must be by link,
// not by geometry (see Cell.SlotOf).
func isLive(t *Tree, r Ref, parent Ref) bool {
	if r == t.Root {
		return true
	}
	if parent.IsNil() || !parent.IsCell() {
		return false
	}
	_, ok := t.Store.Cell(parent).SlotOf(r)
	return ok
}

// ComputeMomentsParallel computes the same moments with nWorkers
// goroutines using the paper's structure: each worker handles the leaves
// its processor created (its arena, or its Owner-tagged nodes in a shared
// arena), then contributions propagate upward; the worker that completes a
// cell's last child computes that cell. Two passes separated by a barrier:
// pending-counter initialization (MomentsPending), then upward propagation
// (MomentsUp).
func ComputeMomentsParallel(t *Tree, d BodyData, nWorkers int) {
	if t.Root.IsNil() {
		return
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	par.Do(nWorkers, func(w int) { MomentsPending(t, w, nWorkers) })
	par.Do(nWorkers, func(w int) { MomentsUp(t, d, w, nWorkers) })
}

// MomentsPending is worker w's share of the first parallel moments pass:
// it sets the pending-children count of every cell w owns — the live
// ones; garbage is marked so propagation stops at it. Every worker must
// have finished it before any starts MomentsUp.
func MomentsPending(t *Tree, w, nWorkers int) {
	forOwnedCells(t.Store, w, nWorkers, func(r Ref, c *Cell) {
		if !isLive(t, r, c.Parent) {
			c.pending = -1
			return
		}
		var n int32
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if !c.Child(o).IsNil() {
				n++
			}
		}
		if n == 0 {
			c.pending = pendingEmptyCell
		} else {
			c.pending = n
		}
	})
}

// MomentsUp is worker w's share of the second pass: leaves first, then
// propagate upward. Live cells that have no children at all (UPDATE can
// empty a cell by reclaiming its last leaf; a tree over no bodies is one
// empty root) are seeded here too, or their ancestors would never
// complete.
func MomentsUp(t *Tree, d BodyData, w, nWorkers int) {
	s := t.Store
	forOwnedLeaves(s, w, nWorkers, func(r Ref, l *Leaf) {
		if l.Retired || !isLive(t, r, l.Parent) {
			return
		}
		leafMoments(l, d)
		propagateUp(s, l.Parent, d)
	})
	forOwnedCells(s, w, nWorkers, func(r Ref, c *Cell) {
		if atomic.LoadInt32(&c.pending) != pendingEmptyCell {
			return
		}
		combineChildren(s, c)
		propagateUp(s, c.Parent, d)
	})
}

// pendingEmptyCell marks a live cell with zero children; garbage cells get
// -1. Both are disjoint from real pending counts (≥ 1).
const pendingEmptyCell int32 = -2

// propagateUp finishes ancestors whose last child just completed.
//
// The one-level liveness test misjudges nodes inside discarded PARTREE
// local trees: a garbage cell still points at its garbage children, so
// those children look "live" and propagate here. The CAS guard below
// stops such propagation at the first non-positive pending count (garbage
// cells hold -1, empty live cells -2) instead of corrupting the
// sentinels; live ancestors always hold counts ≥ 1 until they complete.
func propagateUp(s *Store, r Ref, d BodyData) {
	for !r.IsNil() {
		c := s.Cell(r)
		for {
			cur := atomic.LoadInt32(&c.pending)
			if cur <= 0 {
				return // garbage parent, or stray extra signal: stop
			}
			if atomic.CompareAndSwapInt32(&c.pending, cur, cur-1) {
				if cur != 1 {
					return
				}
				break
			}
		}
		combineChildren(s, c)
		r = c.Parent
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

// forOwnedCells iterates the cells worker w of nWorkers is responsible
// for: allocation slots are striped across workers uniformly over every
// arena, which both balances load and touches each node exactly once.
func forOwnedCells(s *Store, w, nWorkers int, fn func(Ref, *Cell)) {
	for a := range s.arenas {
		n := s.CellsIn(a)
		for i := w; i < n; i += nWorkers {
			fn(CellRef(a, i), s.Cell(CellRef(a, i)))
		}
	}
}

func forOwnedLeaves(s *Store, w, nWorkers int, fn func(Ref, *Leaf)) {
	for a := range s.arenas {
		n := s.LeavesIn(a)
		for i := w; i < n; i += nWorkers {
			fn(LeafRef(a, i), s.Leaf(LeafRef(a, i)))
		}
	}
}
