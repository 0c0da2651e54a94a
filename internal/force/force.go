// Package force implements the force-calculation phase of the Barnes-Hut
// method: the θ-criterion tree traversal, a direct O(N²) reference
// implementation for accuracy tests, and the parallel per-partition driver.
// The paper keeps this phase identical across all tree-building algorithms
// (it is >97% of sequential time and parallelizes well everywhere); it
// lives here so the whole application can be timed and simulated.
package force

import (
	"math"

	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/phys"
	"partree/internal/vec"
)

// Params are the physics knobs of the force pass.
type Params struct {
	// Theta is the Barnes-Hut opening angle: a cell of size s at distance
	// d is approximated by its center of mass when s/d < Theta.
	Theta float64
	// Eps is the Plummer softening length.
	Eps float64
	// G is the gravitational constant (1 in model units).
	G float64
}

// DefaultParams mirror the SPLASH-2 BARNES defaults.
func DefaultParams() Params { return Params{Theta: 1.0, Eps: 0.05, G: 1} }

// Result is the outcome of one body's tree traversal.
type Result struct {
	Acc vec.V3
	// Interactions counts body-body plus body-cell force evaluations;
	// it is the body's cost for costzones partitioning.
	Interactions int64
	// NodesVisited counts tree nodes touched during the traversal
	// (opened cells and leaves); the platform simulator charges the
	// force phase's communication from it.
	NodesVisited int64
}

// Accel computes the Barnes-Hut acceleration on body self.
func Accel(t *octree.Tree, d octree.BodyData, self int32, p Params) Result {
	return AccelVisit(t, d, self, p, nil)
}

// AccelVisit is Accel with an optional callback invoked once per tree node
// the traversal touches; the platform simulator uses it to charge the
// force phase's communication against the real working set.
func AccelVisit(t *octree.Tree, d octree.BodyData, self int32, p Params, visit func(octree.Ref)) Result {
	return accelAt(t, d, d.Pos[self], self, p, visit)
}

// AccelAt evaluates the tree's field at an arbitrary position with no
// self-exclusion — the message-passing baseline uses it to traverse the
// tree built from a rank's received (remote) data.
func AccelAt(t *octree.Tree, d octree.BodyData, pos vec.V3, p Params) Result {
	return accelAt(t, d, pos, -1, p, nil)
}

func accelAt(t *octree.Tree, d octree.BodyData, pos vec.V3, self int32, p Params, visit func(octree.Ref)) Result {
	var res Result
	if t.Root.IsNil() {
		return res
	}
	eps2 := p.Eps * p.Eps
	var rec func(r octree.Ref)
	rec = func(r octree.Ref) {
		res.NodesVisited++
		if visit != nil {
			visit(r)
		}
		if r.IsLeaf() {
			l := t.Store.Leaf(r)
			for _, b := range l.Bodies {
				if b == self {
					continue
				}
				res.Acc = res.Acc.Add(pairAccel(pos, d.Pos[b], d.Mass[b], eps2, p.G))
				res.Interactions++
			}
			return
		}
		c := t.Store.Cell(r)
		if c.NBody == 0 {
			return
		}
		dist2 := pos.Dist2(c.COM)
		if c.Cube.Size*c.Cube.Size < p.Theta*p.Theta*dist2 {
			// Far enough: one interaction with the cell's monopole.
			res.Acc = res.Acc.Add(pairAccel(pos, c.COM, c.Mass, eps2, p.G))
			res.Interactions++
			return
		}
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				rec(ch)
			}
		}
	}
	rec(t.Root)
	return res
}

// pairAccel is the softened gravitational acceleration at pos due to a
// point mass m at q.
func pairAccel(pos, q vec.V3, m, eps2, g float64) vec.V3 {
	dv := q.Sub(pos)
	d2 := dv.Len2() + eps2
	inv := 1 / (d2 * math.Sqrt(d2))
	return dv.Scale(g * m * inv)
}

// Direct computes the exact softened acceleration on body self by summing
// over all bodies: the O(N²) reference used by accuracy tests.
func Direct(d octree.BodyData, self int32, p Params) vec.V3 {
	var acc vec.V3
	eps2 := p.Eps * p.Eps
	pos := d.Pos[self]
	for b := range d.Pos {
		if int32(b) == self {
			continue
		}
		acc = acc.Add(pairAccel(pos, d.Pos[b], d.Mass[b], eps2, p.G))
	}
	return acc
}

// PhaseStats aggregates a force pass.
type PhaseStats struct {
	Interactions int64
	NodesVisited int64
}

// ComputeAll runs the force phase over the given per-processor partition:
// processor w computes accelerations and costs for the bodies in assign[w],
// in parallel. It returns aggregate counts. Acc and Cost are written into
// the body store (each body is owned by exactly one processor, so the
// writes never conflict).
func ComputeAll(t *octree.Tree, bodies *phys.Bodies, assign [][]int32, p Params) PhaseStats {
	d := octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}
	nw := len(assign)
	stats := make([]PhaseStats, nw)
	par.Do(nw, func(w int) {
		var st PhaseStats
		for _, b := range assign[w] {
			r := Accel(t, d, b, p)
			bodies.Acc[b] = r.Acc
			bodies.Cost[b] = r.Interactions
			st.Interactions += r.Interactions
			st.NodesVisited += r.NodesVisited
		}
		stats[w] = st
	})
	var total PhaseStats
	for _, st := range stats {
		total.Interactions += st.Interactions
		total.NodesVisited += st.NodesVisited
	}
	return total
}
