package octree

import (
	"fmt"

	"partree/internal/vec"
)

// CheckOptions selects which invariants Check verifies.
type CheckOptions struct {
	// Canonical additionally requires minimality: every live cell's
	// subtree holds more than LeafCap bodies (i.e. the cell had to be
	// subdivided). Rebuilding builders produce canonical trees; UPDATE
	// legitimately does not (it never collapses cells), so it is checked
	// with Canonical false.
	Canonical bool
	// Moments additionally verifies Mass/COM/NBody/Cost against a fresh
	// recomputation from the body data, bit for bit: the recomputation
	// sums in the moments pass's order (leaf bodies as stored, children
	// in octant order).
	Moments bool
}

// Check verifies the structural invariants of t against the body data:
//
//   - every body index in [0,n) appears in exactly one live leaf;
//   - every body lies inside its leaf's cube;
//   - each child's cube is exactly its parent's octant sub-cube, in the
//     matching slot;
//   - parent links agree with child links;
//   - live leaves hold ≤ LeafCap bodies unless at MaxDepth;
//   - no live leaf is marked Retired, no live leaf is empty.
//
// It returns the first violation found, or nil.
func Check(t *Tree, d BodyData, opt CheckOptions) error {
	n := len(d.Pos)
	seen := make([]int32, n)
	s := t.Store
	if t.Root.IsNil() {
		if n != 0 {
			return fmt.Errorf("octree: nil root with %d bodies", n)
		}
		return nil
	}
	if !t.Root.IsCell() {
		return fmt.Errorf("octree: root %v is not a cell", t.Root)
	}

	var errOut error
	fail := func(format string, args ...any) bool {
		if errOut == nil {
			errOut = fmt.Errorf("octree: "+format, args...)
		}
		return false
	}

	var rec func(r Ref, parent Ref, want vec.Cube, depth int) bool
	rec = func(r Ref, parent Ref, want vec.Cube, depth int) bool {
		if r.IsLeaf() {
			l := s.Leaf(r)
			if l.Retired {
				return fail("live leaf %v marked retired", r)
			}
			if l.Parent != parent {
				return fail("leaf %v parent link %v, want %v", r, l.Parent, parent)
			}
			if l.Cube != want {
				return fail("leaf %v cube %v, want %v", r, l.Cube, want)
			}
			if len(l.Bodies) == 0 {
				return fail("empty live leaf %v", r)
			}
			if len(l.Bodies) > s.LeafCap && depth < MaxDepth {
				return fail("leaf %v holds %d bodies > cap %d at depth %d", r, len(l.Bodies), s.LeafCap, depth)
			}
			for _, b := range l.Bodies {
				if b < 0 || int(b) >= n {
					return fail("leaf %v holds out-of-range body %d", r, b)
				}
				// Bodies are *placed* by OctantOf routing (>= center), and
				// with rounding a child cube's face can land exactly on a
				// body's coordinate, so geometric containment and routing
				// can disagree at boundaries. Either one legitimizes the
				// placement: geometric containment is what UPDATE maintains
				// for stationary bodies; routing is exact for every body a
				// rebuilding pass inserted.
				if !l.Cube.Contains(d.Pos[b]) && !routesToLeaf(t, r, d.Pos[b]) {
					return fail("body %d at %v outside leaf %v cube %v and not routed to it", b, d.Pos[b], r, l.Cube)
				}
				seen[b]++
			}
			return true
		}
		c := s.Cell(r)
		if c.Parent != parent {
			return fail("cell %v parent link %v, want %v", r, c.Parent, parent)
		}
		if c.Cube != want {
			return fail("cell %v cube %v, want %v", r, c.Cube, want)
		}
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			ch := c.Child(o)
			if ch.IsNil() {
				continue
			}
			if !rec(ch, r, c.Cube.Child(o), depth+1) {
				return false
			}
		}
		return true
	}
	rec(t.Root, Nil, t.RootCube(), 0)
	if errOut != nil {
		return errOut
	}

	for b, k := range seen {
		if k != 1 {
			return fmt.Errorf("octree: body %d appears in %d leaves, want 1", b, k)
		}
	}

	if opt.Canonical {
		if err := checkCanonical(t); err != nil {
			return err
		}
	}
	if opt.Moments {
		if err := checkMoments(t, d); err != nil {
			return err
		}
	}
	return nil
}

// routesToLeaf reports whether descending from the root by OctantOf at
// each cell — exactly how the builders place bodies — arrives at leaf r.
func routesToLeaf(t *Tree, r Ref, p vec.V3) bool {
	s := t.Store
	cur := t.Root
	for cur.IsCell() {
		c := s.Cell(cur)
		cur = c.Child(c.Cube.OctantOf(p))
	}
	return cur == r
}

// checkCanonical verifies minimality: every live non-root cell's subtree
// holds more than LeafCap bodies. One post-order pass counts each
// subtree from its children's counts.
func checkCanonical(t *Tree) error {
	s := t.Store
	var err error
	var count func(r Ref) int
	count = func(r Ref) int {
		if r.IsLeaf() {
			return len(s.Leaf(r).Bodies)
		}
		c := s.Cell(r)
		total := 0
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				total += count(ch)
			}
		}
		if err == nil && r != t.Root && total <= s.LeafCap {
			err = fmt.Errorf("octree: non-canonical cell %v holds only %d bodies (cap %d)", r, total, s.LeafCap)
		}
		return total
	}
	count(t.Root)
	return err
}

// checkMoments recomputes moments into scratch and compares them exactly.
func checkMoments(t *Tree, d BodyData) error {
	s := t.Store
	var err error
	var rec func(r Ref) (float64, vec.V3, int32, int64)
	rec = func(r Ref) (float64, vec.V3, int32, int64) {
		if r.IsLeaf() {
			l := s.Leaf(r)
			var mass float64
			var wsum vec.V3
			var cost int64
			for _, b := range l.Bodies {
				mass += d.Mass[b]
				wsum = wsum.MulAdd(d.Mass[b], d.Pos[b])
				cost += d.CostOf(b)
			}
			com := l.Cube.Center
			if mass > 0 {
				com = wsum.Scale(1 / mass)
			}
			if err == nil {
				if mass != l.Mass || com != l.COM || l.Cost != cost {
					err = fmt.Errorf("octree: leaf %v moments stale: mass %g/%g com %v/%v cost %d/%d",
						r, l.Mass, mass, l.COM, com, l.Cost, cost)
				}
			}
			return mass, com, int32(len(l.Bodies)), cost
		}
		c := s.Cell(r)
		var mass float64
		var wsum vec.V3
		var n int32
		var cost int64
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				m, cm, cn, cc := rec(ch)
				mass += m
				wsum = wsum.MulAdd(m, cm)
				n += cn
				cost += cc
			}
		}
		com := c.Cube.Center
		if mass > 0 {
			com = wsum.Scale(1 / mass)
		}
		if err == nil {
			if mass != c.Mass || com != c.COM || n != c.NBody || c.Cost != cost {
				err = fmt.Errorf("octree: cell %v moments stale: mass %g/%g com %v/%v n %d/%d cost %d/%d",
					r, c.Mass, mass, c.COM, com, c.NBody, n, c.Cost, cost)
			}
		}
		return mass, com, n, cost
	}
	rec(t.Root)
	return err
}

// Equal reports whether two trees are identical: same shape, the same
// cubes bit for bit, and the same bodies in the same order in each
// corresponding leaf (every builder keeps a leaf's bodies in ascending
// index order). It is how the parallel builders are verified against the
// canonical sequential tree.
func Equal(a, b *Tree) error {
	// path spells the octants from the root to the node being compared
	// ("/3/5"); it becomes a string only when a difference is reported.
	path := make([]byte, 0, 2*MaxDepth)
	at := func() string { return "root" + string(path) }
	var rec func(ra, rb Ref) error
	rec = func(ra, rb Ref) error {
		if ra.IsNil() != rb.IsNil() {
			return fmt.Errorf("octree: shape differs at %s: %v vs %v", at(), ra, rb)
		}
		if ra.IsNil() {
			return nil
		}
		if ra.IsLeaf() != rb.IsLeaf() {
			return fmt.Errorf("octree: node kind differs at %s: %v vs %v", at(), ra, rb)
		}
		if ra.IsLeaf() {
			la, lb := a.Store.Leaf(ra), b.Store.Leaf(rb)
			if la.Cube != lb.Cube {
				return fmt.Errorf("octree: leaf cube differs at %s: %v vs %v", at(), la.Cube, lb.Cube)
			}
			sa, sb := la.Bodies, lb.Bodies
			if len(sa) != len(sb) {
				return fmt.Errorf("octree: leaf at %s holds %d vs %d bodies", at(), len(sa), len(sb))
			}
			for i := range sa {
				if sa[i] != sb[i] {
					return fmt.Errorf("octree: leaf at %s body lists differ at %d (%d vs %d)", at(), i, sa[i], sb[i])
				}
			}
			return nil
		}
		ca, cb := a.Store.Cell(ra), b.Store.Cell(rb)
		if ca.Cube != cb.Cube {
			return fmt.Errorf("octree: cell cube differs at %s: %v vs %v", at(), ca.Cube, cb.Cube)
		}
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			path = append(path, '/', '0'+byte(o))
			if err := rec(ca.Child(o), cb.Child(o)); err != nil {
				return err
			}
			path = path[:len(path)-2]
		}
		return nil
	}
	return rec(a.Root, b.Root)
}
