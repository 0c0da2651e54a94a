package mp

import (
	"partree/internal/octree"
	"partree/internal/vec"
)

// MassPoint is a multipole summary of a remote subtree, shipped between
// ranks. Any body inside the destination box satisfies the θ criterion
// against it by construction, so the receiver sums it directly.
type MassPoint struct {
	COM  vec.V3
	Mass float64
}

// RemoteBody is an individual body shipped because its leaf sat too close
// to the destination box to summarize.
type RemoteBody struct {
	Pos  vec.V3
	Mass float64
}

// Wire sizes (bytes) used for communication accounting. A MassPoint is
// charged COM(24) + mass(8) + 48 B for the second-order tensor a
// locally-essential-tree code would send with it; this baseline
// evaluates only the monopole, so it carries no tensor.
const (
	MassPointBytes  = 80
	RemoteBodyBytes = 32 // pos(24) + mass(8)
	HeaderBytes     = 16
)

// Essential extracts the locally essential set of tree t for a remote
// domain box: walking from the root, a node whose cell satisfies
// size < θ·dist(box, COM) can never be opened by any body in the box and
// is exported as a single MassPoint; leaves that fail the test export
// their bodies. The receiver needs no further communication during force
// evaluation — Salmon's locally essential tree, in its flattened form.
func Essential(t *octree.Tree, d octree.BodyData, box vec.Box, theta float64) ([]MassPoint, []RemoteBody) {
	var mps []MassPoint
	var rbs []RemoteBody
	if t.Root.IsNil() {
		return nil, nil
	}
	var rec func(r octree.Ref)
	rec = func(r octree.Ref) {
		if r.IsLeaf() {
			l := t.Store.Leaf(r)
			dist := box.Dist(l.COM)
			if l.Cube.Size < theta*dist {
				mps = append(mps, MassPoint{COM: l.COM, Mass: l.Mass})
				return
			}
			for _, b := range l.Bodies {
				rbs = append(rbs, RemoteBody{Pos: d.Pos[b], Mass: d.Mass[b]})
			}
			return
		}
		c := t.Store.Cell(r)
		if c.NBody == 0 {
			return
		}
		dist := box.Dist(c.COM)
		if c.Cube.Size < theta*dist {
			mps = append(mps, MassPoint{COM: c.COM, Mass: c.Mass})
			return
		}
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); !ch.IsNil() {
				rec(ch)
			}
		}
	}
	rec(t.Root)
	return mps, rbs
}

// letBytes is the wire size of one essential set.
func letBytes(mps []MassPoint, rbs []RemoteBody) int64 {
	return HeaderBytes + int64(len(mps))*MassPointBytes + int64(len(rbs))*RemoteBodyBytes
}
