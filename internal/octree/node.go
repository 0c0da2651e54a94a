package octree

import (
	"sync/atomic"

	"partree/internal/vec"
)

// Cell is an internal octree node with up to eight children. Children are
// published with atomic stores and read with atomic loads; everything else
// is written either before publication or by the one moments worker that
// reaches the node.
type Cell struct {
	child [vec.NOctants]uint32 // Ref values, accessed atomically

	// Cube is the space this cell represents. Stored (not derived) because
	// the UPDATE algorithm compares bodies against the bounds a node had
	// in the previous time step.
	Cube vec.Cube

	// Parent is the cell containing this one (Nil for the root). UPDATE
	// walks these links upward when a body leaves its old leaf.
	Parent Ref

	// Owner is the processor that created the cell. Its one reader is the
	// simulator's moments phase (simalg), which has each processor compute
	// the cells it created, as in the paper; the native moments pass hands
	// out subtrees instead and never looks at it.
	Owner int32

	// Moments, filled by the moments pass.
	Mass  float64
	COM   vec.V3
	NBody int32
	Cost  int64 // subtree force-calculation cost, consumed by costzones

	// Quad is the traceless quadrupole tensor about COM, packed as
	// (xx, yy, zz, xy, xz, yz). The force phase can use it for a
	// second-order cell approximation, as the original BARNES code does.
	Quad Quadrupole
}

// Quadrupole is a symmetric traceless 3×3 tensor packed as
// (xx, yy, zz, xy, xz, yz).
type Quadrupole [6]float64

// AddPoint accumulates a point mass m at offset d from the expansion
// center: Q += m (3 d dᵀ - |d|² I).
func (q *Quadrupole) AddPoint(m float64, d vec.V3) {
	r2 := d.Len2()
	q[0] += m * (3*d.X*d.X - r2)
	q[1] += m * (3*d.Y*d.Y - r2)
	q[2] += m * (3*d.Z*d.Z - r2)
	q[3] += m * 3 * d.X * d.Y
	q[4] += m * 3 * d.X * d.Z
	q[5] += m * 3 * d.Y * d.Z
}

// AddShifted accumulates a child expansion (mass mc, tensor qc) whose
// center sits at offset d from this expansion's center (parallel-axis
// transport plus the child's own tensor).
func (q *Quadrupole) AddShifted(mc float64, qc Quadrupole, d vec.V3) {
	for i := range q {
		q[i] += qc[i]
	}
	q.AddPoint(mc, d)
}

// Apply returns Q·r and rᵀQr.
func (q Quadrupole) Apply(r vec.V3) (vec.V3, float64) {
	qr := vec.V3{
		X: q[0]*r.X + q[3]*r.Y + q[4]*r.Z,
		Y: q[3]*r.X + q[1]*r.Y + q[5]*r.Z,
		Z: q[4]*r.X + q[5]*r.Y + q[2]*r.Z,
	}
	return qr, qr.Dot(r)
}

// Child atomically loads the child reference in octant o.
func (c *Cell) Child(o vec.Octant) Ref {
	return Ref(atomic.LoadUint32(&c.child[o]))
}

// SetChild atomically publishes child r in octant o. All initialization of
// the node r refers to must precede this call.
func (c *Cell) SetChild(o vec.Octant, r Ref) {
	atomic.StoreUint32(&c.child[o], uint32(r))
}

// SlotOf scans the child slots for r and returns its octant. Identifying
// a child's slot geometrically — OctantOf(child.Cube.Center) — breaks
// down at extreme depth: once the cube size drops below an ulp of the
// center coordinates, Child's center±size/4 rounds back onto the parent
// center and OctantOf picks the all-high octant regardless of where the
// child actually hangs. Coincident bodies drive cubes that small, so any
// "which slot holds this node" question must go through the links.
func (c *Cell) SlotOf(r Ref) (vec.Octant, bool) {
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if c.Child(o) == r {
			return o, true
		}
	}
	return 0, false
}

// childSlice copies the eight child refs with atomic loads.
func (c *Cell) childSlice() [vec.NOctants]Ref {
	var out [vec.NOctants]Ref
	for o := range c.child {
		out[o] = Ref(atomic.LoadUint32(&c.child[o]))
	}
	return out
}

// initChildren sets every child slot to Nil. Called once at allocation,
// before the cell is published.
func (c *Cell) initChildren() {
	for o := range c.child {
		c.child[o] = uint32(Nil)
	}
}

// Leaf is a terminal octree node holding body indices. All mutation of a
// live leaf happens under the Store's striped lock for its Ref.
type Leaf struct {
	Cube   vec.Cube
	Parent Ref
	Owner  int32

	// Bodies holds indices into the phys.Bodies store. Its length exceeds
	// the tree's LeafCap only for overflow leaves at MaxDepth (coincident
	// or near-coincident bodies that no amount of subdivision separates).
	Bodies []int32

	// Retired marks a leaf that was subdivided (or emptied by UPDATE) and
	// unlinked from the tree. A walker that locked a retired leaf must
	// restart its descent.
	Retired bool

	// Moments, filled by the moments pass. Quad is only consumed when a
	// leaf's moments roll up into an ancestor cell's expansion.
	Mass float64
	COM  vec.V3
	Cost int64
	Quad Quadrupole
}

// NBody returns the number of bodies in the leaf.
func (l *Leaf) NBody() int { return len(l.Bodies) }
