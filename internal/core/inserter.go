package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"partree/internal/octree"
	"partree/internal/vec"
)

// inserter is the locked concurrent-insertion discipline shared by ORIG,
// LOCAL, UPDATE, and PARTREE. Child-slot transitions follow a strict
// protocol (see package octree's concurrency contract):
//
//   - nil → node: holding the parent cell's striped lock, slot re-checked;
//   - leaf → cell (subdivision), leaf → nil (reclaim): holding the leaf's
//     striped lock, slot re-checked.
//
// Readers descend lock-free on atomic child loads and validate after
// locking: if the slot no longer holds the node they locked, they retry.
// Exactly one lock is ever held at a time, so stripe collisions cannot
// deadlock.
type inserter struct {
	s     *octree.Store
	arena int           // arena this processor allocates from
	proc  int           // processor id (Owner tag)
	pc    *procCounters // this processor's counters
	// bodyLeaf, when non-nil, maps body → containing leaf Ref (stored as
	// uint32, accessed atomically). UPDATE maintains it across steps.
	bodyLeaf []uint32
	// freeLeaves recycles retired leaf slots (UPDATE only). Leaves
	// retired during a step land in deferredFree and are promoted only at
	// the step barrier: reusing a slot mid-step would rewrite fields that
	// UPDATE's unlocked containment checks may still be reading through
	// stale bodyLeaf entries.
	freeLeaves   []octree.Ref
	deferredFree []octree.Ref
}

// lockNode acquires r's striped lock and counts the acquisition on the
// processor's counters. All builder lock sites funnel through here.
func (ins *inserter) lockNode(r octree.Ref) *sync.Mutex {
	mu := ins.s.Lock(r)
	ins.pc.Locks++
	return mu
}

// promoteFreed moves the step's retired leaves onto the reusable free
// list. Call only at a barrier, when no other goroutine can hold a stale
// reference that it has not yet re-validated.
func (ins *inserter) promoteFreed() {
	ins.freeLeaves = append(ins.freeLeaves, ins.deferredFree...)
	ins.deferredFree = ins.deferredFree[:0]
}

func (ins *inserter) setBodyLeaf(b int32, r octree.Ref) {
	if ins.bodyLeaf != nil {
		atomic.StoreUint32(&ins.bodyLeaf[b], uint32(r))
	}
}

func (ins *inserter) getBodyLeaf(b int32) octree.Ref {
	return octree.Ref(atomic.LoadUint32(&ins.bodyLeaf[b]))
}

// allocLeaf allocates (or recycles) a leaf.
func (ins *inserter) allocLeaf(cube vec.Cube, parent octree.Ref) (octree.Ref, *octree.Leaf) {
	ins.pc.Leaves++
	if n := len(ins.freeLeaves); n > 0 {
		r := ins.freeLeaves[n-1]
		ins.freeLeaves = ins.freeLeaves[:n-1]
		l := ins.s.Leaf(r)
		l.Cube = cube
		l.Parent = parent
		l.Owner = int32(ins.proc)
		l.Retired = false
		l.Bodies = l.Bodies[:0]
		return r, l
	}
	return ins.s.AllocLeaf(ins.arena, cube, parent, ins.proc)
}

func (ins *inserter) allocCell(cube vec.Cube, parent octree.Ref) (octree.Ref, *octree.Cell) {
	ins.pc.Cells++
	return ins.s.AllocCell(ins.arena, cube, parent, ins.proc)
}

// insertInOrder adds body b to a leaf's body list, which every builder
// keeps in ascending index order — the order octree.BuildSerial inserts
// in — so each leaf's moments sum in the serial tree's order whatever
// order the processors arrived in. It shifts the larger bodies up from
// the back: a body arriving in index order costs one compare.
func insertInOrder(bodies []int32, b int32) []int32 {
	bodies = append(bodies, b)
	i := len(bodies) - 1
	for ; i > 0 && bodies[i-1] > b; i-- {
		bodies[i] = bodies[i-1]
	}
	bodies[i] = b
	return bodies
}

// insert places body b into the shared subtree rooted at cell from (at
// depth fromDepth), locking as the paper's algorithms do.
func (ins *inserter) insert(from octree.Ref, fromDepth int, b int32, pos []vec.V3) {
	s := ins.s
	p := pos[b]
	cur := from
	depth := fromDepth
	for {
		c := s.Cell(cur)
		o := c.Cube.OctantOf(p)
		ch := c.Child(o)
		switch {
		case ch.IsNil():
			mu := ins.lockNode(cur)
			if got := c.Child(o); !got.IsNil() {
				// Lost the race; someone filled the slot.
				mu.Unlock()
				ins.pc.Retries++
				continue
			}
			lr, l := ins.allocLeaf(c.Cube.Child(o), cur)
			l.Bodies = insertInOrder(l.Bodies, b)
			ins.setBodyLeaf(b, lr)
			c.SetChild(o, lr)
			mu.Unlock()
			return

		case ch.IsLeaf():
			mu := ins.lockNode(ch)
			if c.Child(o) != ch {
				// The leaf was subdivided, reclaimed, or replaced
				// between our read and our lock.
				mu.Unlock()
				ins.pc.Retries++
				continue
			}
			l := s.Leaf(ch)
			if len(l.Bodies) < s.LeafCap || depth+1 >= s.MaxDepth {
				l.Bodies = insertInOrder(l.Bodies, b)
				ins.setBodyLeaf(b, ch)
				mu.Unlock()
				return
			}
			// Subdivide: build the replacement subtree privately,
			// then publish it in place of the leaf.
			cr := ins.subdivide(cur, ch, l, depth, pos)
			ins.publishSplit(cr, l.Bodies, pos)
			c.SetChild(o, cr)
			mu.Unlock()
			cur = cr
			depth++

		default:
			cur = ch
			depth++
		}
	}
}

// subdivide converts full leaf lr (locked by the caller) into a private
// cell subtree holding the leaf's bodies, retires the leaf, and returns
// the new cell. The caller publishes the result and unlocks.
func (ins *inserter) subdivide(parent, lr octree.Ref, l *octree.Leaf, depth int, pos []vec.V3) octree.Ref {
	cr, _ := ins.allocCell(l.Cube, parent)
	for _, ob := range l.Bodies {
		ins.insertPrivate(cr, depth+1, ob, pos)
	}
	l.Retired = true
	if ins.bodyLeaf != nil {
		// The rebuilding algorithms reset their stores each step; only
		// UPDATE recycles, and only from the next step barrier onward.
		ins.deferredFree = append(ins.deferredFree, lr)
	}
	return cr
}

// insertPrivate inserts into a subtree that is not yet published, so no
// locks are needed. It does not touch bodyLeaf: a body listed under a
// leaf that is still being filled would let a concurrent remove lock
// that leaf mid-fill (the filler holds only the *old* leaf's lock), so
// the caller publishes the subtree's leaves once it is complete.
func (ins *inserter) insertPrivate(root octree.Ref, rootDepth int, b int32, pos []vec.V3) {
	s := ins.s
	p := pos[b]
	cur := root
	depth := rootDepth
	for {
		c := s.Cell(cur)
		o := c.Cube.OctantOf(p)
		ch := c.Child(o)
		switch {
		case ch.IsNil():
			nlr, nl := ins.allocLeaf(c.Cube.Child(o), cur)
			nl.Bodies = insertInOrder(nl.Bodies, b)
			c.SetChild(o, nlr)
			return
		case ch.IsLeaf():
			nl := s.Leaf(ch)
			if len(nl.Bodies) < s.LeafCap || depth+1 >= s.MaxDepth {
				nl.Bodies = insertInOrder(nl.Bodies, b)
				return
			}
			cr := ins.subdivide(cur, ch, nl, depth, pos)
			c.SetChild(o, cr)
			cur = cr
			depth++
		default:
			cur = ch
			depth++
		}
	}
}

// publishSplit records, for each of bodies, the leaf it ended up in
// under r, the subtree subdivide built from them; the caller still holds
// the split leaf's lock. It routes each body down r rather than reading
// the new leaves' lists: once a body's entry names a new leaf, a
// concurrent remove may lock that leaf and shift its list. A no-op
// without a bodyLeaf map.
func (ins *inserter) publishSplit(r octree.Ref, bodies []int32, pos []vec.V3) {
	if ins.bodyLeaf == nil {
		return
	}
	for _, b := range bodies {
		leaf := r
		for leaf.IsCell() {
			c := ins.s.Cell(leaf)
			leaf = c.Child(c.Cube.OctantOf(pos[b]))
		}
		ins.setBodyLeaf(b, leaf)
	}
}

// publishLeaves records, for every body under the privately built
// subtree r, the leaf it ended up in. Call it after the subtree is
// complete and before it is attached; nothing may remove from r's
// leaves meanwhile (SPACE's attach runs no repair). A no-op without a
// bodyLeaf map.
func (ins *inserter) publishLeaves(r octree.Ref) {
	if ins.bodyLeaf == nil {
		return
	}
	if r.IsLeaf() {
		for _, b := range ins.s.Leaf(r).Bodies {
			ins.setBodyLeaf(b, r)
		}
		return
	}
	c := ins.s.Cell(r)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := c.Child(o); !ch.IsNil() {
			ins.publishLeaves(ch)
		}
	}
}

// remove takes body b out of its current leaf (UPDATE only), keeping the
// rest in order. If the leaf empties, it is retired and unlinked from
// its parent. Returns the leaf's parent cell, from which the caller walks
// upward to reinsert.
func (ins *inserter) remove(b int32) octree.Ref {
	s := ins.s
	for {
		lr := ins.getBodyLeaf(b)
		mu := ins.lockNode(lr)
		if ins.getBodyLeaf(b) != lr {
			mu.Unlock()
			ins.pc.Retries++
			continue
		}
		l := s.Leaf(lr)
		i := slices.Index(l.Bodies, b)
		if i < 0 {
			panic("core: bodyLeaf map out of sync with leaf contents")
		}
		l.Bodies = slices.Delete(l.Bodies, i, i+1)
		parent := l.Parent
		if len(l.Bodies) == 0 {
			// Reclaim the leaf, as the paper does.
			pc := s.Cell(parent)
			if o, ok := pc.SlotOf(lr); ok {
				pc.SetChild(o, octree.Nil)
			}
			l.Retired = true
			ins.deferredFree = append(ins.deferredFree, lr)
		}
		mu.Unlock()
		return parent
	}
}
