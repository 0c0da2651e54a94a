package octree

import "partree/internal/vec"

// NewTree allocates a root cell covering cube in the given arena and
// returns a tree rooted at it. All builders — including the paper's — make
// the root a cell up front ("the dimensions of the root cell of the tree
// are determined from the current positions of the particles").
func NewTree(s *Store, arenaID, owner int, cube vec.Cube) *Tree {
	root, _ := s.AllocCell(arenaID, cube, Nil, owner)
	return &Tree{Store: s, Root: root}
}

// Insert adds body b (with positions supplied by pos) into the subtree
// rooted at the cell root, which sits at depth rootDepth. It is
// single-threaded with respect to that subtree: the sequential builder
// and the message-passing baseline use it (SPACE and PARTREE sort their
// private subtrees instead).
// Concurrent insertion into a shared tree lives in internal/core, which
// adds the locking discipline the paper describes.
func (s *Store) Insert(root Ref, rootDepth, arenaID, owner int, b int32, pos []vec.V3) {
	p := pos[b]
	cur := root
	depth := rootDepth
	for {
		c := s.Cell(cur)
		o := c.Cube.OctantOf(p)
		ch := c.Child(o)
		switch {
		case ch.IsNil():
			lr, l := s.AllocLeaf(arenaID, c.Cube.Child(o), cur, owner)
			l.Bodies = append(l.Bodies, b)
			c.SetChild(o, lr)
			return

		case ch.IsLeaf():
			l := s.Leaf(ch)
			if len(l.Bodies) < s.LeafCap || depth+1 >= MaxDepth {
				l.Bodies = append(l.Bodies, b)
				return
			}
			// Subdivide: replace the full leaf with a cell and
			// redistribute its bodies one level down, then keep
			// descending to place b.
			cr, _ := s.AllocCell(arenaID, l.Cube, cur, owner)
			for _, ob := range l.Bodies {
				s.Insert(cr, depth+1, arenaID, owner, ob, pos)
			}
			l.Retired = true
			c.SetChild(o, cr)
			cur = cr
			depth++

		default: // internal cell
			cur = ch
			depth++
		}
	}
}

// BuildSerial constructs the canonical octree for the given positions:
// a fresh store with a single arena, bodies inserted in index order.
// This is the reference ("best sequential") implementation every parallel
// builder is checked against.
func BuildSerial(pos []vec.V3, leafCap int) *Tree {
	cube := vec.BoundingCube(len(pos), func(i int) vec.V3 { return pos[i] }, vec.RootMargin)
	return BuildSerialInto(NewStore(1, leafCap), cube, pos)
}

// BuildSerialInto is BuildSerial against a caller-owned store (reused
// across time steps via Reset) and a caller-chosen root cube.
func BuildSerialInto(s *Store, cube vec.Cube, pos []vec.V3) *Tree {
	t := NewTree(s, 0, 0, cube)
	for i := range pos {
		s.Insert(t.Root, 0, 0, 0, int32(i), pos)
	}
	return t
}
