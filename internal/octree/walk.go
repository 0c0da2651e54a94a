package octree

import "partree/internal/vec"

// Visitor receives each live node in pre-order with its depth. Returning
// false prunes the subtree (children are not visited).
type Visitor func(r Ref, depth int) bool

// Walk visits every live node reachable from the root in deterministic
// pre-order (children in octant order). It reads child slots atomically, so
// walking a tree that another goroutine is still building is memory-safe,
// though the snapshot is then unspecified; callers normally walk quiescent
// trees.
func Walk(t *Tree, v Visitor) {
	if t.Root.IsNil() {
		return
	}
	walkRec(t.Store, t.Root, 0, v)
}

func walkRec(s *Store, r Ref, depth int, v Visitor) {
	if !v(r, depth) || r.IsLeaf() {
		return
	}
	c := s.Cell(r)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := c.Child(o); !ch.IsNil() {
			walkRec(s, ch, depth+1, v)
		}
	}
}

// LiveLeaves returns the refs of every leaf reachable from the root, in
// deterministic pre-order.
func LiveLeaves(t *Tree) []Ref {
	var out []Ref
	Walk(t, func(r Ref, _ int) bool {
		if r.IsLeaf() {
			out = append(out, r)
		}
		return true
	})
	return out
}
