package core

import (
	"partree/internal/octree"
	"partree/internal/trace"
	"partree/internal/vec"
)

// updateBuilder implements UPDATE: instead of rebuilding every step, it
// keeps the previous step's tree and moves only the bodies that crossed
// their old leaf's boundary. The tree's *shape* persists across steps
// (cells keep their relative positions); only the root's dimensions — and
// therefore every node's absolute bounds — are refreshed, which is why the
// node structures store their bounds explicitly. A moved body walks up the
// parent links until an enclosing cell is found and is reinserted from
// there with the usual locking; leaves that empty out are reclaimed.
//
// Repair is all UPDATE adds: whenever it must start from scratch (its
// first build, a requested rebuild, a restart) it runs SPACE's zero-lock
// build into the same resident store, publishing every body's leaf.
type updateBuilder struct {
	spaceBuilder
	tree     *octree.Tree
	bodyLeaf []uint32
	// insPerProc[w] is processor w's repair inserter; it persists across
	// repairs so leaf free-lists survive from step to step.
	insPerProc []*inserter
	// lastStep is the Step of the most recent build, so a gap in the
	// sequence (or a body-set swap hiding behind an unchanged count's
	// inverse — a resize on a continuous sequence) is detected instead
	// of silently repairing against a stale bodyLeaf map.
	lastStep int
}

func newUpdate(cfg Config) Builder {
	return &updateBuilder{
		spaceBuilder: spaceBuilder{cfg: cfg, store: octree.NewStore(cfg.P, cfg.LeafCap)},
		insPerProc:   make([]*inserter, cfg.P),
	}
}

func (ub *updateBuilder) Algorithm() Algorithm { return UPDATE }

// freshReason decides whether this build must start from scratch and
// why; "" means the resident tree can be repaired incrementally.
func (ub *updateBuilder) freshReason(in *Input) string {
	resized := len(ub.bodyLeaf) != in.Bodies.N()
	discontinuous := in.Step != ub.lastStep+1
	switch {
	case ub.tree == nil:
		return FreshFirst
	case in.Rebuild:
		return FreshRequested
	case in.Step == 0:
		return FreshStep0
	case resized && discontinuous:
		return FreshRestart
	case resized:
		return FreshSwap
	case discontinuous:
		return FreshDiscontinuity
	}
	return ""
}

func (ub *updateBuilder) Build(in *Input) (*octree.Tree, *Metrics) {
	m := newMetrics(UPDATE, in.P())
	t := ub.build(in, m)
	ub.lastStep = in.Step
	return t, m
}

func (ub *updateBuilder) build(in *Input, m *Metrics) *octree.Tree {
	if reason := ub.freshReason(in); reason != "" {
		m.FreshRebuild = true
		m.FreshReason = reason
		// Stale entries are harmless: a fresh build publishes every body's
		// leaf before anything reads the map.
		ub.bodyLeaf = grown(ub.bodyLeaf, in.Bodies.N())
		ub.tree = ub.spaceBuilder.build(in, m, ub.bodyLeaf)
		// The reset store took every recycled leaf with it: repair starts
		// over with new inserters.
		clear(ub.insPerProc)
		return ub.tree
	}

	p, s, pos := in.P(), ub.store, in.Bodies.Pos
	runPhases(ub.cfg, &ub.scratch.phaseScratch, in, m,
		// Refresh the root bounds and rescale every node's cube; the
		// tree keeps its shape but the space it maps onto breathes.
		func(root vec.Cube) *octree.Tree {
			octree.RescaleFork(ub.tree, root, p, func(p int, fn func(int)) { m.fork(trace.PhasePartition, p, fn) })
			return ub.tree
		},
		// Move the bodies that crossed their leaf boundary.
		func(tree *octree.Tree, w int) {
			ins := ub.inserterFor(w, m)
			ins.promoteFreed()
			for _, b := range in.Assign[w] {
				lr := ins.getBodyLeaf(b)
				if s.Leaf(lr).Cube.Contains(pos[b]) {
					continue // still home; the common case
				}
				ins.pc.BodiesMoved++
				parent := ins.remove(b)
				// Walk up until an enclosing cell is found (the root
				// encloses everything by construction).
				cur := parent
				for {
					c := s.Cell(cur)
					if c.Cube.Contains(pos[b]) || c.Parent.IsNil() {
						break
					}
					cur = c.Parent
				}
				ins.insert(cur, tree.DepthOf(s.Cell(cur).Cube), b, pos)
			}
			m.PerP[w].BodiesBuilt += int64(len(in.Assign[w]))
		})
	return ub.tree
}

// inserterFor returns processor w's persistent inserter, bound to this
// build's counters and bodyLeaf map.
func (ub *updateBuilder) inserterFor(w int, m *Metrics) *inserter {
	ins := ub.insPerProc[w]
	if ins == nil {
		ins = &inserter{s: ub.store, arena: w, proc: w}
		ub.insPerProc[w] = ins
	}
	ins.pc, ins.bodyLeaf = &m.PerP[w], ub.bodyLeaf
	return ins
}
