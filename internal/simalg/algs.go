package simalg

import (
	"sort"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/vec"
)

// ---- UPDATE -------------------------------------------------------------

// updateMove is UPDATE's incremental step: check every owned body against
// its leaf's refreshed bounds, move only the ones that crossed.
func (st *runState) updateMove(sp *sproc) {
	s := st.store
	pos := st.bodies.Pos
	for _, b := range st.assign[sp.w] {
		lr := octree.Ref(st.bodyLeaf[b])
		sp.mp.Read(sp.st.bodyAddrOf[b])
		if st.visLocks {
			// Under LRC the leaf's current state is only guaranteed
			// visible through an acquire.
			sp.lockNode(lockOf(lr))
		}
		sp.readNode(lr)
		sp.compute(descendCycles)
		in := s.Leaf(lr).Cube.Contains(pos[b])
		if st.visLocks {
			sp.unlockNode(lockOf(lr))
		}
		if in {
			continue
		}
		parent := sp.remove(b)
		cur := parent
		for {
			c := s.Cell(cur)
			sp.readNode(cur)
			sp.compute(descendCycles)
			if c.Cube.Contains(pos[b]) || c.Parent.IsNil() {
				break
			}
			cur = c.Parent
		}
		sp.insert(cur, st.tree.DepthOf(s.Cell(cur).Cube), b)
	}
}

// ---- PARTREE ------------------------------------------------------------

// partreeBuild builds a private local tree (no synchronization at all) and
// merges it into the global tree, cell/subtree at a time.
func (st *runState) partreeBuild(sp *sproc) {
	localRoot, _ := sp.allocCell(st.cube, octree.Nil)
	for _, b := range st.assign[sp.w] {
		sp.insertPrivate(localRoot, 0, b)
	}
	lc := st.store.Cell(localRoot)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := lc.Child(o); !ch.IsNil() {
			sp.mergeChild(st.tree.Root, o, ch, 0)
		}
	}
}

// mergeChild merges the private node lc into the global tree under gcell's
// octant o (gcell at depth gdepth). Mirrors core.inserter.mergeChild.
func (sp *sproc) mergeChild(gcell octree.Ref, o vec.Octant, lc octree.Ref, gdepth int) {
	st := sp.st
	s := st.store
	vis := st.visLocks
	for {
		sp.compute(descendCycles)
		c := s.Cell(gcell)
		if vis {
			sp.lockNode(lockOf(gcell))
		}
		sp.readNode(gcell)
		slot := c.Child(o)
		if vis && !slot.IsNil() {
			sp.unlockNode(lockOf(gcell))
		}
		switch {
		case slot.IsNil():
			if !vis {
				sp.lockNode(lockOf(gcell))
			}
			if !c.Child(o).IsNil() {
				sp.unlockNode(lockOf(gcell))
				continue
			}
			if lc.IsLeaf() {
				s.Leaf(lc).Parent = gcell
			} else {
				s.Cell(lc).Parent = gcell
			}
			c.SetChild(o, lc)
			sp.writeNode(gcell)
			sp.unlockNode(lockOf(gcell))
			return

		case slot.IsLeaf():
			sp.lockNode(lockOf(slot))
			sp.readNode(slot)
			if c.Child(o) != slot {
				sp.unlockNode(lockOf(slot))
				continue
			}
			l := s.Leaf(slot)
			if lc.IsLeaf() {
				ll := s.Leaf(lc)
				if len(l.Bodies)+len(ll.Bodies) <= s.LeafCap || gdepth+2 >= octree.MaxDepth {
					l.Bodies = append(l.Bodies, ll.Bodies...)
					sp.writeNode(slot)
					sp.unlockNode(lockOf(slot))
					return
				}
				cr, _ := sp.allocCell(l.Cube, gcell)
				for _, ob := range l.Bodies {
					sp.insertPrivate(cr, gdepth+1, ob)
				}
				for _, ob := range ll.Bodies {
					sp.insertPrivate(cr, gdepth+1, ob)
				}
				l.Retired = true
				c.SetChild(o, cr)
				sp.writeNode(gcell)
				sp.unlockNode(lockOf(slot))
				return
			}
			for _, ob := range l.Bodies {
				sp.insertPrivate(lc, gdepth+1, ob)
			}
			s.Cell(lc).Parent = gcell
			l.Retired = true
			c.SetChild(o, lc)
			sp.writeNode(gcell)
			sp.unlockNode(lockOf(slot))
			return

		default:
			if lc.IsLeaf() {
				for _, ob := range s.Leaf(lc).Bodies {
					sp.insert(slot, gdepth+1, ob)
				}
				return
			}
			lcc := s.Cell(lc)
			for oo := vec.Octant(0); oo < vec.NOctants; oo++ {
				if ch := lcc.Child(oo); !ch.IsNil() {
					sp.mergeChild(slot, oo, ch, gdepth+1)
				}
			}
			return
		}
	}
}

// ---- SPACE --------------------------------------------------------------

// spaceState is the shared state of SPACE's counting/partitioning rounds.
type spaceState struct {
	threshold int
	frontier  []core.FrontierCell
	myBodies  [][]int32
	myCell    [][]int32
	counts    [][]int64
	octs      [][]uint8
	newIndex  []int32
	subs      []core.Subspace
}

// spaceThreshold resolves the paper's subdivision threshold: the
// configured value, or the default n/(4·p), never below the leaf
// capacity.
func spaceThreshold(configured, leafCap, n, p int) int {
	th := configured
	if th <= 0 {
		th = n / (4 * p)
	}
	if th < leafCap {
		th = leafCap
	}
	return th
}

func newSpaceState(st *runState) *spaceState {
	p := st.cfg.P
	ss := &spaceState{
		threshold: spaceThreshold(st.cfg.SpaceThreshold, st.cfg.LeafCap, st.bodies.N(), p),
		frontier:  []core.FrontierCell{{Ref: st.tree.Root, Cube: st.tree.RootCube()}},
		myBodies:  make([][]int32, p),
		myCell:    make([][]int32, p),
		counts:    make([][]int64, p),
		octs:      make([][]uint8, p),
	}
	for w := 0; w < p; w++ {
		ss.myBodies[w] = append([]int32(nil), st.assign[w]...)
		ss.myCell[w] = make([]int32, len(ss.myBodies[w]))
	}
	return ss
}

// spaceBuild runs SPACE's rounds and then builds and attaches the
// processor's subtrees — with zero lock operations. It builds them the
// paper's way, one private insert per body, and charges that; the native
// builder sorts them into the same tree instead.
func (st *runState) spaceBuild(sp *sproc, step int) {
	ss := st.space
	pos := st.bodies.Pos
	p := st.cfg.P
	s := st.store
	round := 0
	for {
		if len(ss.frontier) == 0 {
			break
		}
		f := len(ss.frontier)
		w := sp.w
		// Count my bodies against the frontier (private histogram).
		ss.counts[w] = make([]int64, f*8)
		if cap(ss.octs[w]) < len(ss.myBodies[w]) {
			ss.octs[w] = make([]uint8, len(ss.myBodies[w]))
		}
		ss.octs[w] = ss.octs[w][:len(ss.myBodies[w])]
		for i, b := range ss.myBodies[w] {
			fc := ss.myCell[w][i]
			o := ss.frontier[fc].Cube.OctantOf(pos[b])
			ss.octs[w][i] = uint8(o)
			ss.counts[w][int(fc)*8+int(o)]++
		}
		sp.compute(float64(len(ss.myBodies[w])) * countCycles)
		sp.mp.Barrier(lbl("scount", step*1000+round))

		// Processor 0 reduces and extends the prefix of the octree.
		if w == 0 {
			st.spaceReduce(sp)
		}
		sp.mp.Barrier(lbl("sreduce", step*1000+round))

		// Re-bucket my bodies; no barrier needed before the next count,
		// both touch only per-processor state plus the stable frontier.
		st.spaceRebucket(sp)
		sp.compute(float64(len(ss.myBodies[w])) * countCycles / 2)
		round++
	}

	// Assign subspaces (processor 0) and build them, lock-free.
	if sp.w == 0 {
		assignSubspaces(st.tree.RootCube(), ss.subs, p)
	}
	sp.mp.Barrier(lbl("sassign", step))
	for i := range ss.subs {
		sub := &ss.subs[i]
		if sub.Owner != sp.w {
			continue
		}
		var node octree.Ref
		if sub.Count <= s.LeafCap || sub.Depth >= octree.MaxDepth {
			lr, l := sp.allocLeaf(sub.Cube, sub.Parent)
			l.Bodies = append(l.Bodies, sub.Bodies...)
			sp.readChunks(st.bodyAddrs(sub.Bodies))
			node = lr
		} else {
			cr, _ := sp.allocCell(sub.Cube, sub.Parent)
			for _, b := range sub.Bodies {
				sp.insertPrivate(cr, sub.Depth, b)
			}
			node = cr
		}
		s.Cell(sub.Parent).SetChild(sub.Oct, node)
		sp.writeNode(sub.Parent)
	}
}

// spaceReduce (processor 0) merges the round's histograms, creates prefix
// cells for over-threshold octants and finalizes the rest as subspaces.
// The decisions are published via newIndex encoded into the frontier map:
// handled directly in spaceRebucket through ss fields.
func (st *runState) spaceReduce(sp *sproc) {
	ss := st.space
	p := st.cfg.P
	s := st.store
	f := len(ss.frontier)
	ss.newIndex = make([]int32, f*8)
	var next []core.FrontierCell
	for fc := 0; fc < f; fc++ {
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			var total int64
			for w := 0; w < p; w++ {
				total += ss.counts[w][fc*8+int(o)]
			}
			slot := fc*8 + int(o)
			switch {
			case total == 0:
				ss.newIndex[slot] = -1
			case int(total) > ss.threshold && ss.frontier[fc].Depth+1 < octree.MaxDepth:
				cr, _ := sp.allocCell(ss.frontier[fc].Cube.Child(o), ss.frontier[fc].Ref)
				s.Cell(ss.frontier[fc].Ref).SetChild(o, cr)
				sp.writeNode(ss.frontier[fc].Ref)
				ss.newIndex[slot] = int32(len(next))
				next = append(next, core.FrontierCell{Ref: cr, Cube: ss.frontier[fc].Cube.Child(o), Depth: ss.frontier[fc].Depth + 1})
			default:
				ss.newIndex[slot] = int32(-2 - len(ss.subs))
				ss.subs = append(ss.subs, core.Subspace{
					Parent: ss.frontier[fc].Ref,
					Oct:    o,
					Cube:   ss.frontier[fc].Cube.Child(o),
					Depth:  ss.frontier[fc].Depth + 1,
					Count:  int(total),
				})
			}
		}
	}
	ss.frontier = next
	sp.compute(float64(f*8) * countCycles)
}

// spaceRebucket routes this processor's bodies per the reduce decisions.
func (st *runState) spaceRebucket(sp *sproc) {
	ss := st.space
	w := sp.w
	keepB := ss.myBodies[w][:0]
	keepC := ss.myCell[w][:0]
	for i, b := range ss.myBodies[w] {
		slot := int(ss.myCell[w][i])*8 + int(ss.octs[w][i])
		ni := ss.newIndex[slot]
		switch {
		case ni >= 0:
			keepB = append(keepB, b)
			keepC = append(keepC, ni)
		case ni <= -2:
			k := int(-2 - ni)
			ss.subs[k].Bodies = append(ss.subs[k].Bodies, b)
		default:
			panic("simalg: body routed to an empty octant")
		}
	}
	ss.myBodies[w] = keepB
	ss.myCell[w] = keepC
}

// assignSubspaces assigns subspaces to processors in spatially
// contiguous groups of roughly equal body count: sorted by Morton key
// (octree depth-first order) and cut into P cost zones, the grouping the
// paper's Figure 5 draws. Contiguity limits the locality loss SPACE
// trades for its zero locking.
func assignSubspaces(root vec.Cube, subs []core.Subspace, p int) {
	k := partition.NewKeyer(root)
	order := make([]int, len(subs))
	keys := make([]uint64, len(subs))
	total := 0
	for i := range order {
		order[i] = i
		keys[i] = k.Key(subs[i].Cube.Center)
		total += subs[i].Count
	}
	sort.Slice(order, func(a, b int) bool {
		if ka, kb := keys[order[a]], keys[order[b]]; ka != kb {
			return ka < kb
		}
		return order[a] < order[b]
	})
	if total == 0 {
		return
	}
	acc := 0
	for _, i := range order {
		w := acc * p / total
		if w >= p {
			w = p - 1
		}
		subs[i].Owner = w
		acc += subs[i].Count
	}
}
