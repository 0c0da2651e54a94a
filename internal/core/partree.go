package core

import (
	"partree/internal/octree"
	"partree/internal/vec"
)

// partreeBuilder implements PARTREE: each processor builds a private local
// tree over its assigned bodies with no synchronization at all, then the
// local trees are merged into the global tree. The unit of merge work is a
// cell or whole subtree rather than a single body, which cuts the number
// of global (locked) insert operations dramatically — the paper's step
// between the lock-per-body algorithms and the lock-free SPACE.
//
// This builder departs from the paper in how a local tree is built: the
// paper inserts the bodies one by one, this one sorts them (sortLocal),
// as SPACE sorts its subspaces. A canonical tree is a function of its
// bodies, so the local trees — and so everything the merge does — are
// the ones insertion built; only the leaves insertion split and
// discarded are never allocated. internal/simalg replays the paper's
// insertion.
type partreeBuilder struct {
	cfg    Config
	store  *octree.Store
	phases phaseScratch
}

func newPartree(cfg Config) Builder {
	// Arena p is processor p's local-tree arena; the global root lives in
	// arena 0 (processor 0 creates it).
	return &partreeBuilder{cfg: cfg, store: octree.NewStore(cfg.P, cfg.LeafCap)}
}

func (pb *partreeBuilder) Algorithm() Algorithm { return PARTREE }

func (pb *partreeBuilder) Store() *octree.Store { return pb.store }

func (pb *partreeBuilder) Build(in *Input) (*octree.Tree, *Metrics) {
	m := newMetrics(PARTREE, in.P())
	s := pb.store
	pos := in.Bodies.Pos
	tree := runPhases(pb.cfg, &pb.phases, in, m, freshTree(s), func(tree *octree.Tree, w int) {
		ins := &inserter{s: s, arena: w, proc: w, pc: &m.PerP[w]}

		// Phase 1: private local tree; InsertParticlesInTree in the
		// paper's skeleton. The local root's dimensions are precomputed
		// to match the global root, so a cell in one tree represents
		// exactly the same subspace as in any other.
		localRoot := ins.sortLocal(tree.RootCube(), in.Assign[w], pos)
		m.PerP[w].BodiesBuilt += int64(len(in.Assign[w]))

		// Phase 2: MergeLocalTrees.
		lc := s.Cell(localRoot)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := lc.Child(o); !ch.IsNil() {
				ins.mergeChild(tree.Root, o, ch, 0, pos)
			}
		}
	})
	return tree, m
}

// sortLocal builds the private local tree of bodies under a new root cell
// over cube root, and returns that cell: it stays a cell however few
// bodies there are, as the paper's local root is. The bodies are
// counted by root octant and scattered stably into a borrowed index
// pair; each octant's positions are then gathered into a borrowed pair
// sized to the largest octant, and sortSubtree sorts the octant's
// subtree from depth 1. Nothing is locked: the tree is this processor's
// until the merge publishes it.
func (ins *inserter) sortLocal(root vec.Cube, bodies []int32, pos []vec.V3) octree.Ref {
	lr, lc := ins.allocCell(root, octree.Nil)
	idx := spares.borrow(len(bodies))
	// idx[1] holds each body's root octant until the scatter has read it;
	// then the sorts take it as their spare.
	oct := idx[1]
	var start [vec.NOctants + 1]int
	for i, b := range bodies {
		o := root.OctantOf(pos[b])
		oct[i] = int32(o)
		start[o+1]++
	}
	largest := 0
	for o := 1; o <= vec.NOctants; o++ {
		largest = max(largest, start[o])
		start[o] += start[o-1]
	}
	cursor := start
	for i, b := range bodies {
		o := oct[i]
		idx[0][cursor[o]] = b
		cursor[o]++
	}
	cols := carried.borrow(largest)
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		lo, hi := start[o], start[o+1]
		if lo == hi {
			continue
		}
		p, p2 := cols[0][:hi-lo], cols[1][:hi-lo]
		for i, b := range idx[0][lo:hi] {
			p[i] = pos[b]
		}
		lc.SetChild(o, ins.sortSubtree(root.Child(o), 1, lr, idx[0][lo:hi], idx[1][lo:hi], p, p2))
	}
	carried.give(cols)
	spares.give(idx)
	return lr
}

// mergeChild merges local node lc (private to this processor) into the
// global tree as a child of gcell at octant o. gcell sits at gdepth.
// Merging decisions depend only on the *types* of the global slot and the
// local node, exactly as in the paper: local cells match global cells by
// construction because both trees share the root dimensions.
func (ins *inserter) mergeChild(gcell octree.Ref, o vec.Octant, lc octree.Ref, gdepth int, pos []vec.V3) {
	s := ins.s
	for {
		c := s.Cell(gcell)
		slot := c.Child(o)
		switch {
		case slot.IsNil():
			// Transplant the whole private subtree in one shot.
			mu := ins.lockNode(gcell)
			if !c.Child(o).IsNil() {
				mu.Unlock()
				ins.pc.Retries++
				continue
			}
			if lc.IsLeaf() {
				s.Leaf(lc).Parent = gcell
			} else {
				s.Cell(lc).Parent = gcell
			}
			c.SetChild(o, lc)
			mu.Unlock()
			return

		case slot.IsLeaf():
			mu := ins.lockNode(slot)
			if c.Child(o) != slot {
				mu.Unlock()
				ins.pc.Retries++
				continue
			}
			l := s.Leaf(slot)
			if lc.IsLeaf() {
				ll := s.Leaf(lc)
				if len(l.Bodies)+len(ll.Bodies) <= s.LeafCap || gdepth+2 >= octree.MaxDepth {
					// Two part-full leaves combine into one.
					for _, ob := range ll.Bodies {
						l.Bodies = insertInOrder(l.Bodies, ob)
					}
					mu.Unlock()
					return
				}
				// Overflow: replace the global leaf with a private
				// cell holding both leaves' bodies, then publish.
				cr, _ := ins.allocCell(l.Cube, gcell)
				for _, ob := range l.Bodies {
					ins.insertPrivate(cr, gdepth+1, ob, pos)
				}
				for _, ob := range ll.Bodies {
					ins.insertPrivate(cr, gdepth+1, ob, pos)
				}
				l.Retired = true
				c.SetChild(o, cr)
				mu.Unlock()
				return
			}
			// Global leaf vs local cell: push the leaf's bodies down
			// into the (still private) local subtree, then transplant
			// it in place of the leaf.
			for _, ob := range l.Bodies {
				ins.insertPrivate(lc, gdepth+1, ob, pos)
			}
			s.Cell(lc).Parent = gcell
			l.Retired = true
			c.SetChild(o, lc)
			mu.Unlock()
			return

		default: // global cell
			if lc.IsLeaf() {
				// The bodies of the local leaf must descend into the
				// existing global subtree one by one (locked).
				for _, ob := range s.Leaf(lc).Bodies {
					ins.insert(slot, gdepth+1, ob, pos)
				}
				return
			}
			// Cell vs cell: recurse; the local cell node itself is
			// discarded (its subspace already exists globally).
			lcc := s.Cell(lc)
			for oo := vec.Octant(0); oo < vec.NOctants; oo++ {
				if ch := lcc.Child(oo); !ch.IsNil() {
					ins.mergeChild(slot, oo, ch, gdepth+1, pos)
				}
			}
			return
		}
	}
}
