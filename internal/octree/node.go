package octree

import (
	"sync/atomic"

	"partree/internal/vec"
)

// Cell is an internal octree node with up to eight children. Children are
// published with atomic stores and read with atomic loads; everything else
// is written either before publication or by the one moments worker that
// reaches the node. Its moments are the monopole the force walk reads: a
// far cell acts through its mass at its centre of mass, as in the paper.
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
// live leaf happens under the Store's striped lock for its Ref. Its
// moments are a cell's monopole; the force walk reads them only when it
// approximates the leaf, and otherwise visits its bodies.
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

	// Moments, filled by the moments pass.
	Mass float64
	COM  vec.V3
	Cost int64
}

// NBody returns the number of bodies in the leaf.
func (l *Leaf) NBody() int { return len(l.Bodies) }
