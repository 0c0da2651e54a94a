// Package fmm implements a cell-cell fast summation solver (dual tree
// traversal with Cartesian expansions to quadrupole order, in the style
// of Dehnen's falcON and of the cell-cell interactions in fast multipole
// methods). The paper notes that its tree-building algorithms and issues
// "apply to all the methods" in the O(N log N) family, not just
// Barnes-Hut; this package substantiates that: it consumes the very same
// octrees — from any of the five builders — and replaces the per-body
// traversal with mutual cell interactions plus local-expansion push-down,
// cutting the number of force evaluations roughly in half again.
package fmm

import (
	"math"

	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/phys"
	"partree/internal/vec"
)

// Params mirror the force package's knobs.
type Params struct {
	// Theta is the cell-cell acceptance parameter: two cells interact as
	// expansions when (sizeA + sizeB) < Theta · dist(comA, comB).
	Theta float64
	Eps   float64
	G     float64
	// Quadrupole includes source quadrupoles in cell-cell interactions.
	Quadrupole bool
}

// DefaultParams matches force.DefaultParams.
func DefaultParams() Params { return Params{Theta: 1.0, Eps: 0.05, G: 1, Quadrupole: true} }

// Stats counts the solver's work.
type Stats struct {
	CellCell int64 // expansion-expansion interactions (M2L)
	P2P      int64 // body-body interactions
}

// local is the field expansion accumulated at a sink cell's center of
// mass: the acceleration there and its Jacobian (first derivative), so
// bodies inside get a(x) ≈ Acc + J·(x − com).
type local struct {
	acc vec.V3
	jac [9]float64 // row-major ∂a_i/∂x_j
}

func (l *local) addJacTimes(d vec.V3) vec.V3 {
	return vec.V3{
		X: l.jac[0]*d.X + l.jac[1]*d.Y + l.jac[2]*d.Z,
		Y: l.jac[3]*d.X + l.jac[4]*d.Y + l.jac[5]*d.Z,
		Z: l.jac[6]*d.X + l.jac[7]*d.Y + l.jac[8]*d.Z,
	}
}

// solver carries one worker's private state: sink subtree locals plus
// accumulated per-body direct contributions.
type solver struct {
	t    *octree.Tree
	d    octree.BodyData
	p    Params
	eps2 float64
	st   Stats
	loc  map[octree.Ref]*local
	acc  []vec.V3 // indexed by body id; only sink-subtree bodies touched
}

// ComputeAll evaluates accelerations for every body using workers
// parallel sink subtrees. Acc and Cost are written into the body store.
func ComputeAll(t *octree.Tree, bodies *phys.Bodies, p Params, workers int) Stats {
	if p.Theta == 0 {
		p = DefaultParams()
	}
	if workers < 1 {
		workers = 1
	}
	d := octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}

	// Sink decomposition: a frontier of subtrees, each handled by one
	// solver against the whole tree. Disjoint sinks mean disjoint local
	// maps and disjoint body writes. The frontier size is fixed (not a
	// function of workers) so results are bit-identical for any worker
	// count — the sink granularity slightly shapes which interactions
	// are accepted, and it must not vary with parallelism.
	sinks := sinkFrontier(t, 64)
	stats := make([]Stats, len(sinks))
	next := make(chan int, len(sinks))
	for i := range sinks {
		next <- i
	}
	close(next)
	par.Do(workers, func(int) {
		for i := range next {
			s := &solver{
				t: t, d: d, p: p, eps2: p.Eps * p.Eps,
				loc: make(map[octree.Ref]*local),
				acc: make([]vec.V3, len(bodies.Pos)),
			}
			s.interact(sinks[i], t.Root)
			s.push(sinks[i], local{})
			// Publish this sink's bodies.
			forBodies(t, sinks[i], func(b int32) {
				bodies.Acc[b] = s.acc[b]
			})
			stats[i] = s.st
		}
	})
	var total Stats
	for _, s := range stats {
		total.CellCell += s.CellCell
		total.P2P += s.P2P
	}
	// Cost accounting for costzones: spread the solver's work over the
	// bodies it served (cell-cell work belongs to subtrees, so per-body
	// attribution is approximate by construction).
	n := int64(len(bodies.Pos))
	if n > 0 {
		per := (total.CellCell + total.P2P) / n
		if per < 1 {
			per = 1
		}
		for i := range bodies.Cost {
			bodies.Cost[i] = per
		}
	}
	return total
}

// sinkFrontier collects ~want disjoint subtree roots covering all bodies.
func sinkFrontier(t *octree.Tree, want int) []octree.Ref {
	frontier := []octree.Ref{t.Root}
	for len(frontier) < want {
		// Expand the largest cell (by subtree population).
		bestI, bestN := -1, int32(-1)
		for i, r := range frontier {
			if r.IsCell() {
				if n := t.Store.Cell(r).NBody; n > bestN {
					bestI, bestN = i, n
				}
			}
		}
		if bestI < 0 {
			break
		}
		c := t.Store.Cell(frontier[bestI])
		frontier = append(frontier[:bestI], frontier[bestI+1:]...)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				frontier = append(frontier, ch)
			}
		}
	}
	return frontier
}

// nodeInfo extracts the geometry/moments either node kind shares.
func (s *solver) nodeInfo(r octree.Ref) (com vec.V3, mass float64, size float64, quad octree.Quadrupole, n int32) {
	if r.IsLeaf() {
		l := s.t.Store.Leaf(r)
		return l.COM, l.Mass, l.Cube.Size, l.Quad, int32(len(l.Bodies))
	}
	c := s.t.Store.Cell(r)
	return c.COM, c.Mass, c.Cube.Size, c.Quad, c.NBody
}

// interact processes the sink (a) × source (b) pair.
func (s *solver) interact(a, b octree.Ref) {
	comA, _, sizeA, _, nA := s.nodeInfo(a)
	comB, massB, sizeB, quadB, nB := s.nodeInfo(b)
	if nA == 0 || nB == 0 {
		return
	}

	if a != b {
		dist2 := comA.Dist2(comB)
		sum := sizeA + sizeB
		if sum*sum < s.p.Theta*s.p.Theta*dist2 {
			// Accepted: source expansion -> sink local expansion.
			s.m2l(a, comA, comB, massB, quadB)
			s.st.CellCell++
			return
		}
	}

	aLeaf, bLeaf := a.IsLeaf(), b.IsLeaf()
	switch {
	case aLeaf && bLeaf:
		s.p2p(a, b)
	case a == b:
		// Self interaction: all ordered child pairs.
		c := s.t.Store.Cell(a)
		for oa := vec.Octant(0); oa < vec.NOctants; oa++ {
			ca := c.Child(oa)
			if ca.IsNil() {
				continue
			}
			for ob := vec.Octant(0); ob < vec.NOctants; ob++ {
				cb := c.Child(ob)
				if cb.IsNil() {
					continue
				}
				s.interact(ca, cb)
			}
		}
	case bLeaf || (!aLeaf && sizeA >= sizeB):
		// Open the sink.
		c := s.t.Store.Cell(a)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				s.interact(ch, b)
			}
		}
	default:
		// Open the source.
		c := s.t.Store.Cell(b)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				s.interact(a, ch)
			}
		}
	}
}

// m2l adds source (massB, quadB at comB)'s field — value and Jacobian —
// to sink a's local expansion at comA.
func (s *solver) m2l(a octree.Ref, comA, comB vec.V3, massB float64, quadB octree.Quadrupole) {
	l := s.loc[a]
	if l == nil {
		l = &local{}
		s.loc[a] = l
	}
	g := s.p.G
	r := comA.Sub(comB)
	r2 := r.Len2() + s.eps2
	r1 := math.Sqrt(r2)
	inv3 := 1 / (r2 * r1)
	inv5 := inv3 / r2

	// Monopole field and Jacobian.
	l.acc = l.acc.MulAdd(-g*massB*inv3, r)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			v := 3 * g * massB * inv5 * comp(r, i) * comp(r, j)
			if i == j {
				v -= g * massB * inv3
			}
			l.jac[3*i+j] += v
		}
	}
	if s.p.Quadrupole {
		qr, rqr := quadB.Apply(r)
		l.acc = l.acc.Add(qr.Scale(g*inv5).MulAdd(-2.5*g*rqr*inv5/r2, r))
	}
}

// p2p accumulates direct body-body forces of source leaf b onto sink leaf a.
func (s *solver) p2p(a, b octree.Ref) {
	la := s.t.Store.Leaf(a)
	lb := s.t.Store.Leaf(b)
	for _, i := range la.Bodies {
		pos := s.d.Pos[i]
		var acc vec.V3
		for _, j := range lb.Bodies {
			if i == j {
				continue
			}
			acc = acc.Add(force.PointAccel(pos, s.d.Pos[j], s.d.Mass[j], force.Params{Eps: s.p.Eps, G: s.p.G}))
			s.st.P2P++
		}
		s.acc[i] = s.acc[i].Add(acc)
	}
}

// push propagates accumulated local expansions down the sink subtree and
// deposits them on bodies.
func (s *solver) push(r octree.Ref, inherited local) {
	if l := s.loc[r]; l != nil {
		inherited.acc = inherited.acc.Add(l.acc)
		for i := range inherited.jac {
			inherited.jac[i] += l.jac[i]
		}
	}
	if r.IsLeaf() {
		lf := s.t.Store.Leaf(r)
		for _, b := range lf.Bodies {
			d := s.d.Pos[b].Sub(lf.COM)
			s.acc[b] = s.acc[b].Add(inherited.acc).Add(inherited.addJacTimes(d))
		}
		return
	}
	c := s.t.Store.Cell(r)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		ch := c.Child(o)
		if ch.IsNil() {
			continue
		}
		// Shift the expansion center from this cell's COM to the child's.
		shifted := inherited
		var dcom vec.V3
		if ch.IsLeaf() {
			dcom = s.t.Store.Leaf(ch).COM.Sub(c.COM)
		} else {
			dcom = s.t.Store.Cell(ch).COM.Sub(c.COM)
		}
		shifted.acc = shifted.acc.Add(inherited.addJacTimes(dcom))
		s.push(ch, shifted)
	}
}

// forBodies visits every body in the subtree.
func forBodies(t *octree.Tree, r octree.Ref, fn func(int32)) {
	if r.IsLeaf() {
		for _, b := range t.Store.Leaf(r).Bodies {
			fn(b)
		}
		return
	}
	c := t.Store.Cell(r)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := c.Child(o); !ch.IsNil() {
			forBodies(t, ch, fn)
		}
	}
}

func comp(v vec.V3, i int) float64 {
	switch i {
	case 0:
		return v.X
	case 1:
		return v.Y
	default:
		return v.Z
	}
}
