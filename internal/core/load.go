package core

import "partree/internal/octree"

// loadBuilder is the shared skeleton of ORIG and LOCAL: every processor
// loads its own bodies one by one into a single shared tree, locking cells
// as it modifies them. The two algorithms differ only in their allocation
// layout, captured by arenaFor.
type loadBuilder struct {
	cfg    Config
	alg    Algorithm
	store  *octree.Store
	phases phaseScratch
	// arenaFor maps a processor to the arena it allocates nodes from:
	// ORIG returns 0 for everyone (the single shared global array with a
	// shared allocation cursor); LOCAL returns the processor's own arena
	// (per-processor cell and leaf arrays).
	arenaFor func(proc int) int
}

func newOrig(cfg Config) Builder {
	return &loadBuilder{
		cfg:      cfg,
		alg:      ORIG,
		store:    octree.NewStore(1, cfg.LeafCap),
		arenaFor: func(int) int { return 0 },
	}
}

func newLocal(cfg Config) Builder {
	return &loadBuilder{
		cfg:      cfg,
		alg:      LOCAL,
		store:    octree.NewStore(cfg.P, cfg.LeafCap),
		arenaFor: func(proc int) int { return proc },
	}
}

func (lb *loadBuilder) Algorithm() Algorithm { return lb.alg }

func (lb *loadBuilder) Store() *octree.Store { return lb.store }

func (lb *loadBuilder) Build(in *Input) (*octree.Tree, *Metrics) {
	m := newMetrics(lb.alg, in.P())
	pos := in.Bodies.Pos
	tree := runPhases(lb.cfg, &lb.phases, in, m, freshTree(lb.store), func(tree *octree.Tree, w int) {
		ins := &inserter{s: lb.store, arena: lb.arenaFor(w), proc: w, pc: &m.PerP[w]}
		for _, b := range in.Assign[w] {
			ins.insert(tree.Root, 0, b, pos)
		}
		m.PerP[w].BodiesBuilt += int64(len(in.Assign[w]))
	})
	return tree, m
}
