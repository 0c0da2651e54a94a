// Package partition implements the costzones partitioning scheme of Singh
// et al. for hierarchical N-body methods: the tree's total interaction
// cost is divided into P equal contiguous zones along the tree's in-order
// leaf sequence, and each processor receives the bodies whose accumulated
// cost falls inside its zone. Because nearby bodies sit close together in
// tree order, the zones are spatially coherent, giving both load balance
// and locality. The paper uses costzones for the force-calculation (and
// update) phases of every algorithm; the previous step's zones are also
// the tree-building partition for ORIG, LOCAL, UPDATE, and PARTREE.
//
// The costs the zones are cut along are *modeled*: each body carries the
// interaction count it incurred in the previous force pass (or 1 before
// any pass ran). Modeled costs drift from what the hardware actually
// spends when distributions are skewed or time-evolving; MoveCuts closes
// that gap for a body set kept in spatial order, moving the zone
// boundaries by the time each processor was measured to take.
package partition

import (
	"fmt"
	"math"

	"partree/internal/octree"
	"partree/internal/vec"
)

// Costzones splits the bodies under t into p zones of roughly equal cost.
// The tree must have its moments (including Cost) computed. Every body
// appears in exactly one zone; zones follow the deterministic in-order
// traversal, so equal inputs give equal partitions.
//
// Degenerate costs still yield an exact cover: when the total subtree
// cost is zero (an all-zero Cost slice — e.g. the first step, before any
// measurement or force pass has run), every body is weighted 1 and the
// zones become an even split along the traversal; a negative per-body
// cost (a corrupt measurement) is clamped to zero rather than allowed to
// walk the accumulator backwards.
func Costzones(t *octree.Tree, d octree.BodyData, p int) [][]int32 {
	out := make([][]int32, p)
	if t.Root.IsNil() || p == 0 {
		return out
	}
	n := rootBodies(t)
	z := newZoner(p, rootCost(t), int64(n))
	// The zones are capped sub-slices of one array holding the traversal,
	// so appending to one cannot reach the next.
	flat := make([]int32, 0, n)
	lo, w := 0, 0 // zone w, still open, began at flat[lo]
	var rec func(r octree.Ref)
	rec = func(r octree.Ref) {
		if r.IsLeaf() {
			for _, b := range t.Store.Leaf(r).Bodies {
				for zw := z.place(d.CostOf(b)); w < zw; w++ {
					out[w], lo = flat[lo:len(flat):len(flat)], len(flat)
				}
				flat = append(flat, b)
			}
			return
		}
		c := t.Store.Cell(r)
		// Whole-subtree skip: if this subtree fits entirely inside the
		// current zone, it still has to be walked to collect bodies, so
		// no shortcut — costzones' benefit is placement, not speed.
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				rec(ch)
			}
		}
	}
	rec(t.Root)
	out[w] = flat[lo:len(flat):len(flat)]
	return out
}

// CostRanges is costzones for a body set whose storage order is already
// the spatial order (core.Stepper keeps its bodies Morton-resident): the
// zones are len(cut)-1 contiguous ranges of slots, zone w the slots
// [cut[w], cut[w+1]), cut where the accumulated cost crosses w·total/p, by
// the same rules as Costzones (zero or negative total: every body weighs
// 1; a negative cost weighs 0). One sum and one prefix sweep of cost, in
// order, that stops once the last zone is open; one zone is [0, n] with
// neither. Nothing is allocated.
func CostRanges(cost []int64, cut []int) {
	p := len(cut) - 1
	if p < 1 {
		return
	}
	cut[0], cut[p] = 0, len(cost)
	if p == 1 {
		return
	}
	var total int64
	for _, c := range cost {
		total += c
	}
	z := newZoner(p, total, int64(len(cost)))
	w := 0 // the open zone
	for i := 0; i < len(cost) && w < p-1; i++ {
		for zw := z.place(cost[i]); w < zw; w++ {
			cut[w+1] = i
		}
	}
	for ; w < p-1; w++ {
		cut[w+1] = len(cost)
	}
}

// cutDamping is the share of the way to its target a cut moves in one
// step. Moving the whole way chases each step's noise, and where a zone's
// time is not linear in its bodies — the model below assumes it is — the
// cuts overshoot and oscillate; half the way converges in a few steps.
const cutDamping = 0.5

// MoveCuts is the boundary controller's step. cut holds the p+1
// positions of p contiguous zones (cut[0] = 0, cut[p] = n) and ns the time
// each zone was measured to take. It models the cumulative time as linear
// across each zone, inverts that model at k·total/p, and writes into next
// (len(cut), not sharing memory with cut) every interior cut moved
// cutDamping of the way to its target, clamped to its moved left
// neighbour and n so the cuts stay monotone; the ends stay. It returns the model's max/mean zone time at the new
// cuts — or 0, with next a copy of cut, when the times carry no signal:
// a length mismatch or no positive time (a negative time counts as 0).
func MoveCuts(next, cut []int, ns []int64) float64 {
	p := len(ns)
	copy(next, cut)
	if p == 0 || len(cut) != p+1 || len(next) != p+1 {
		return 0
	}
	took := func(w int) float64 { return float64(max(ns[w], 0)) }
	// share is where x falls in [lo, hi), as a fraction.
	share := func(x, lo, hi float64) float64 {
		if hi <= lo {
			return 0
		}
		return min(max((x-lo)/(hi-lo), 0), 1)
	}
	var total float64
	for w := range ns {
		total += took(w)
	}
	if !(total > 0) {
		return 0
	}
	var (
		w, v        int     // the zones holding goal k and next[k]
		wT, vT      float64 // the time of the zones before w and v
		prev, worst float64 // the model's time up to next[k-1]; its largest zone
	)
	for k := 1; k <= p; k++ {
		at := total // the model's time up to next[k]
		if k < p {
			goal := total * float64(k) / float64(p)
			for w < p-1 && wT+took(w) <= goal {
				wT, w = wT+took(w), w+1
			}
			lo, hi := float64(cut[w]), float64(cut[w+1])
			x := lo + share(goal, wT, wT+took(w))*(hi-lo)
			moved := int(math.Round(float64(cut[k]) + cutDamping*(x-float64(cut[k]))))
			next[k] = min(max(moved, next[k-1]), cut[p])
			for v < p-1 && next[k] >= cut[v+1] {
				vT, v = vT+took(v), v+1
			}
			at = vT + took(v)*share(float64(next[k]), float64(cut[v]), float64(cut[v+1]))
		}
		worst, prev = max(worst, at-prev), at
	}
	return worst * float64(p) / total
}

// zoner places a stream of bodies into p zones of roughly equal cost: a
// body whose predecessors cost acc belongs to zone ⌊acc·p/total⌋, capped
// at p-1. The accumulated cost never decreases, so the zone only ever
// advances, and ⌊acc·p/total⌋ ≥ k ⟺ acc ≥ ⌈k·total/p⌉: the zoner holds
// the next zone's boundary and divides once per zone, not once per body.
// It is the one place the degenerate-cost rules are written.
type zoner struct {
	p     int
	total int64
	unit  bool  // total cost was ≤ 0: every body weighs 1
	acc   int64 // cost of the bodies placed so far
	w     int   // zone of the next body
	next  int64 // ⌈(w+1)·total/p⌉: the accumulated cost at which zone w+1 begins
}

// newZoner cuts a stream of bodies, of the given total cost, into p zones.
func newZoner(p int, total, bodies int64) zoner {
	z := zoner{p: p, total: total}
	if total <= 0 {
		// Even-split fallback: weight every body 1 so the zones cover the
		// bodies evenly instead of leaving them unassigned (or piling them
		// all into zone 0).
		z.unit, z.total = true, bodies
	}
	z.next = z.boundary(1)
	return z
}

func (z *zoner) boundary(k int) int64 {
	return (int64(k)*z.total + int64(z.p) - 1) / int64(z.p)
}

// place returns the zone of the next body in the stream, whose cost is c.
func (z *zoner) place(c int64) int {
	for z.w < z.p-1 && z.acc >= z.next {
		z.w++
		z.next = z.boundary(z.w + 1)
	}
	if z.unit {
		c = 1
	} else if c < 0 {
		c = 0
	}
	z.acc += c
	return z.w
}

func rootCost(t *octree.Tree) int64 {
	if t.Root.IsLeaf() {
		return t.Store.Leaf(t.Root).Cost
	}
	return t.Store.Cell(t.Root).Cost
}

// rootBodies reads the body count under t from the root's moments.
func rootBodies(t *octree.Tree) int {
	if t.Root.IsLeaf() {
		return len(t.Store.Leaf(t.Root).Bodies)
	}
	return int(t.Store.Cell(t.Root).NBody)
}

// Validate checks that assign covers bodies 0..n-1 exactly once.
func Validate(assign [][]int32, n int) error {
	seen := make([]bool, n)
	for w, chunk := range assign {
		for _, b := range chunk {
			if b < 0 || int(b) >= n {
				return fmt.Errorf("partition: processor %d has out-of-range body %d", w, b)
			}
			if seen[b] {
				return fmt.Errorf("partition: body %d assigned twice", b)
			}
			seen[b] = true
		}
	}
	for b, s := range seen {
		if !s {
			return fmt.Errorf("partition: body %d unassigned", b)
		}
	}
	return nil
}

// Imbalance returns max/mean cost across processors (1.0 = perfect).
func Imbalance(assign [][]int32, d octree.BodyData) float64 {
	if len(assign) == 0 {
		return 1
	}
	var total, max int64
	for _, chunk := range assign {
		var c int64
		for _, b := range chunk {
			c += d.CostOf(b)
		}
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(assign))
	return float64(max) / mean
}
