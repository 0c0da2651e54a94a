package core

import (
	"fmt"
	"time"

	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/vec"
)

// prepareFn is a build's first-phase hook: given the freshly computed
// root cube it readies the tree the insert phase will load — a reset
// store and a new root for the rebuilding algorithms (plus SPACE's
// counting partition), a rescale of the resident tree for UPDATE's
// repair. It runs inside the Bounds bracket.
type prepareFn func(root vec.Cube, tr *trace.Recorder) *octree.Tree

// insertFn is processor w's share of the insert phase; tp is its trace
// handle (nil when tracing is off).
type insertFn func(tree *octree.Tree, w int, tp *trace.P)

// runPhases is the build skeleton all five algorithms share — size the
// root, load the bodies, compute moments — and the only place it is
// written down: the trace window, the three timed brackets, the moments
// fork (each processor's share its own span, like every other phase) and
// the tree stats it counts, Metrics.Timing, each processor's insert time,
// the trace summary, and the publication into the live per-algorithm
// totals all happen here. An algorithm is its prepare and insert hooks.
func runPhases(cfg Config, in *Input, m *Metrics, prepare prepareFn, insert insertFn) *octree.Tree {
	p := in.P()
	// Checked here, on the caller's goroutine: past this line a list
	// without an arena indexes out of range inside a worker, which no
	// caller can recover, and no list at all builds an empty tree.
	if p < 1 || p > cfg.P {
		panic(fmt.Sprintf("core: Build given %d processor lists, want 1 to %d (Config.P)", p, cfg.P))
	}
	// A traced build opens a fresh trace window; untraced, tr stays nil
	// and every hook downstream is a nil check.
	var tr *trace.Recorder
	if cfg.Trace.Active() {
		cfg.Trace.Reset()
		tr = cfg.Trace
	}
	t0 := time.Now()
	tree := prepare(parallelBounds(in, tr), tr)
	t1 := time.Now()

	tracedDo(tr, trace.PhaseInsert, p, func(w int) {
		start := time.Now()
		insert(tree, w, tr.Proc(w))
		m.PerP[w].InsertNs = time.Since(start).Nanoseconds()
	})
	t2 := time.Now()

	m.TreeStats = octree.ComputeMomentsFork(tree, bodyData(in.Bodies), p, func(p int, fn func(w int)) {
		tracedDo(tr, trace.PhaseMoments, p, fn)
	})
	t3 := time.Now()

	m.Timing = Timing{Bounds: t1.Sub(t0), Insert: t2.Sub(t1), Moments: t3.Sub(t2)}
	if tr != nil {
		m.Trace = tr.Summarize()
	}
	publishBuild(m)
	return tree
}

// freshTree is the prepare hook of a from-scratch build: reset the store
// and root a new tree (in arena 0, processor 0's) at the given cube.
func freshTree(s *octree.Store) prepareFn {
	return func(root vec.Cube, _ *trace.Recorder) *octree.Tree {
		s.Reset()
		return octree.NewTree(s, 0, 0, root)
	}
}

func bodyData(b *phys.Bodies) octree.BodyData {
	return octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
}
