package simalg

import (
	"partree/internal/memsim"
	"partree/internal/octree"
	"partree/internal/vec"
)

// sproc is one simulated processor's view of the run: the memsim handle
// plus the charging helpers and the per-processor build state. The engine
// guarantees at most one sproc executes at a time, so the shared octree
// needs no real locks — the simulated locks below exist to charge the
// synchronization costs and to order the build in virtual time exactly as
// the real algorithms would.
type sproc struct {
	w       int
	mp      *memsim.Proc
	st      *runState
	arena   int
	inBuild bool // currently in the tree-build phase (lock accounting)
	meas    bool // current step is measured
	locks   int64
	scratch [4]uint64
}

// appendNodeUnits appends the address of every coherence unit node r's
// record spans: one page under HLRC, 256/LineSize cache lines under the
// hardware-coherent protocols (2 on the 128-byte Challenge and Origin, 4
// on Typhoon-0's 64-byte blocks — fine granularity means more transfers).
func appendNodeUnits(dst []uint64, r octree.Ref, nodeLines int) []uint64 {
	base, stride := nodeAddr(r), uint64(256/nodeLines)
	for i := 0; i < nodeLines; i++ {
		dst = append(dst, base+uint64(i)*stride)
	}
	return dst
}

// readNode / writeNode charge an access to every coherence unit of a node
// record.
func (sp *sproc) readNode(r octree.Ref)  { sp.accessNode(r, false) }
func (sp *sproc) writeNode(r octree.Ref) { sp.accessNode(r, true) }

func (sp *sproc) accessNode(r octree.Ref, write bool) {
	units := appendNodeUnits(sp.scratch[:0], r, sp.st.nodeLines)
	switch {
	case len(units) > 1:
		sp.access(units, write)
	case write:
		sp.mp.Write(units[0])
	default:
		sp.mp.Read(units[0])
	}
}

// readChunks / writeChunks charge a stream of accesses, chunkLen
// addresses per scheduling step.
func (sp *sproc) readChunks(addrs []uint64)  { sp.access(addrs, false) }
func (sp *sproc) writeChunks(addrs []uint64) { sp.access(addrs, true) }

func (sp *sproc) access(addrs []uint64, write bool) {
	for i := 0; i < len(addrs); i += chunkLen {
		chunk := addrs[i:min(i+chunkLen, len(addrs))]
		if write {
			sp.mp.WriteBatch(chunk)
		} else {
			sp.mp.ReadBatch(chunk)
		}
	}
}

// compute charges cycles of private work.
func (sp *sproc) compute(cycles float64) {
	sp.mp.Compute(cycles * sp.st.cfg.Platform.CycleNs)
}

// lockNode acquires a simulated node lock, counting it if we are in a
// measured tree-build phase (Figure 15 counts exactly those).
func (sp *sproc) lockNode(id int) {
	sp.mp.Lock(id)
	if sp.inBuild && sp.meas {
		sp.locks++
	}
}

func (sp *sproc) unlockNode(id int) { sp.mp.Unlock(id) }

// allocCell allocates a cell, charging the allocation path: ORIG takes the
// global allocation lock and bumps the shared cursor and its slot in the
// shared stats array (false sharing and contention); the others bump a
// private padded counter.
func (sp *sproc) allocCell(cube vec.Cube, parent octree.Ref) (octree.Ref, *octree.Cell) {
	sp.chargeAlloc()
	r, c := sp.st.store.AllocCell(sp.arena, cube, parent, sp.w)
	sp.writeNode(r)
	return r, c
}

func (sp *sproc) allocLeaf(cube vec.Cube, parent octree.Ref) (octree.Ref, *octree.Leaf) {
	sp.chargeAlloc()
	r, l := sp.st.store.AllocLeaf(sp.arena, cube, parent, sp.w)
	sp.writeNode(r)
	return r, l
}

func (sp *sproc) chargeAlloc() {
	sp.compute(allocCycles)
	if sp.st.orig {
		sp.lockNode(lockAlloc)
		sp.mp.Read(sharedCounterAddr())
		sp.mp.Write(sharedCounterAddr())
		sp.unlockNode(lockAlloc)
		sp.mp.Write(sharedStatAddr(sp.w))
	} else {
		sp.mp.Write(privStatAddr(sp.w))
	}
}

// insert places body b into the shared tree with the locking discipline of
// the concurrent algorithms (mirrors core.inserter, with charges). On
// hardware-coherent platforms only modifications lock; on HLRC platforms
// every level of the descent additionally takes the cell's lock, because
// under lazy release consistency another processor's insertion is only
// guaranteed visible through an acquire — the paper observes exactly this
// ("the HLRC protocol requires additional synchronization to make the
// code release consistent"), and it is why Figure 15 shows higher lock
// counts on Typhoon-0 than on the Origin for the same algorithm.
func (sp *sproc) insert(from octree.Ref, fromDepth int, b int32) {
	st := sp.st
	s := st.store
	pos := st.bodies.Pos
	vis := st.visLocks
	p := pos[b]
	sp.mp.Read(sp.st.bodyAddrOf[b])
	cur := from
	depth := fromDepth
	for {
		c := s.Cell(cur)
		if vis {
			sp.lockNode(lockOf(cur))
		}
		sp.readNode(cur)
		sp.compute(descendCycles)
		o := c.Cube.OctantOf(p)
		ch := c.Child(o)
		switch {
		case ch.IsNil():
			if !vis {
				sp.lockNode(lockOf(cur))
			}
			if got := c.Child(o); !got.IsNil() {
				sp.unlockNode(lockOf(cur))
				continue
			}
			lr, l := sp.allocLeaf(c.Cube.Child(o), cur)
			l.Bodies = append(l.Bodies, b)
			sp.setBodyLeaf(b, lr)
			c.SetChild(o, lr)
			sp.writeNode(cur)
			sp.unlockNode(lockOf(cur))
			return

		case ch.IsLeaf():
			if vis {
				sp.unlockNode(lockOf(cur))
			}
			sp.lockNode(lockOf(ch))
			sp.readNode(ch)
			if c.Child(o) != ch {
				sp.unlockNode(lockOf(ch))
				continue
			}
			l := s.Leaf(ch)
			if len(l.Bodies) < s.LeafCap || depth+1 >= s.MaxDepth {
				l.Bodies = append(l.Bodies, b)
				sp.setBodyLeaf(b, ch)
				sp.writeNode(ch)
				sp.unlockNode(lockOf(ch))
				return
			}
			cr := sp.subdivide(cur, ch, l, depth)
			c.SetChild(o, cr)
			sp.writeNode(cur)
			sp.unlockNode(lockOf(ch))
			cur = cr
			depth++

		default:
			if vis {
				sp.unlockNode(lockOf(cur))
			}
			cur = ch
			depth++
		}
	}
}

// subdivide replaces the locked full leaf with a private subtree.
func (sp *sproc) subdivide(parent, lr octree.Ref, l *octree.Leaf, depth int) octree.Ref {
	cr, _ := sp.allocCell(l.Cube, parent)
	for _, ob := range l.Bodies {
		sp.insertPrivate(cr, depth+1, ob)
	}
	l.Retired = true
	return cr
}

// insertPrivate inserts into an unpublished subtree: same charges minus
// the locks.
func (sp *sproc) insertPrivate(root octree.Ref, rootDepth int, b int32) {
	st := sp.st
	s := st.store
	pos := st.bodies.Pos
	p := pos[b]
	sp.mp.Read(sp.st.bodyAddrOf[b])
	cur := root
	depth := rootDepth
	for {
		c := s.Cell(cur)
		sp.compute(descendCycles)
		o := c.Cube.OctantOf(p)
		ch := c.Child(o)
		switch {
		case ch.IsNil():
			lr, l := sp.allocLeaf(c.Cube.Child(o), cur)
			l.Bodies = append(l.Bodies, b)
			sp.setBodyLeaf(b, lr)
			c.SetChild(o, lr)
			sp.writeNode(cur)
			return
		case ch.IsLeaf():
			l := s.Leaf(ch)
			if len(l.Bodies) < s.LeafCap || depth+1 >= s.MaxDepth {
				l.Bodies = append(l.Bodies, b)
				sp.setBodyLeaf(b, ch)
				sp.writeNode(ch)
				return
			}
			cr := sp.subdivide(cur, ch, l, depth)
			c.SetChild(o, cr)
			sp.writeNode(cur)
			cur = cr
			depth++
		default:
			sp.readNode(cur)
			cur = ch
			depth++
		}
	}
}

func (sp *sproc) setBodyLeaf(b int32, r octree.Ref) {
	if sp.st.bodyLeaf != nil {
		sp.st.bodyLeaf[b] = uint32(r)
	}
}

// remove takes body b out of its leaf (UPDATE), reclaiming empty leaves;
// returns the parent cell to reinsert from.
func (sp *sproc) remove(b int32) octree.Ref {
	st := sp.st
	s := st.store
	for {
		lr := octree.Ref(st.bodyLeaf[b])
		sp.lockNode(lockOf(lr))
		sp.readNode(lr)
		if octree.Ref(st.bodyLeaf[b]) != lr {
			sp.unlockNode(lockOf(lr))
			continue
		}
		l := s.Leaf(lr)
		for i, ob := range l.Bodies {
			if ob == b {
				last := len(l.Bodies) - 1
				l.Bodies[i] = l.Bodies[last]
				l.Bodies = l.Bodies[:last]
				break
			}
		}
		sp.writeNode(lr)
		parent := l.Parent
		if len(l.Bodies) == 0 {
			pc := s.Cell(parent)
			if o, ok := pc.SlotOf(lr); ok {
				pc.SetChild(o, octree.Nil)
				sp.writeNode(parent)
			}
			l.Retired = true
		}
		sp.unlockNode(lockOf(lr))
		return parent
	}
}
