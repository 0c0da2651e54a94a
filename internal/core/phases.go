package core

import (
	"fmt"
	"time"

	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/vec"
)

// prepareFn is a build's first-phase hook: given the freshly computed
// root cube it readies the tree the insert phase will load — a reset
// store and a new root for the rebuilding algorithms (plus SPACE's
// counting partition), a rescale of the resident tree for UPDATE's
// repair. It runs inside the Bounds bracket.
type prepareFn func(root vec.Cube) *octree.Tree

// insertFn is processor w's share of the insert phase.
type insertFn func(tree *octree.Tree, w int)

// runPhases is the build skeleton all five algorithms share — size the
// root, load the bodies, compute moments — and the only place it is
// written down: the three timed brackets, the insert and moments forks
// and the tree stats the latter counts, Metrics.Timing, the trace
// summary, and the publication into the live per-algorithm totals all
// happen here. An algorithm is its prepare and insert hooks.
func runPhases(cfg Config, in *Input, m *Metrics, prepare prepareFn, insert insertFn) *octree.Tree {
	p := in.P()
	// Checked here, on the caller's goroutine: past this line a list
	// without an arena indexes out of range inside a worker, which no
	// caller can recover, no list at all builds an empty tree, and lists
	// that miss bodies build a tree over bounds that count them.
	if p < 1 || p > cfg.P {
		panic(fmt.Sprintf("core: Build given %d processor lists, want 1 to %d (Config.P)", p, cfg.P))
	}
	listed := 0
	for _, a := range in.Assign {
		listed += len(a)
	}
	if n := in.Bodies.N(); listed != n {
		panic(fmt.Sprintf("core: Build given processor lists of %d bodies in all, want all %d", listed, n))
	}
	t0 := time.Now()
	m.epoch = t0
	tree := prepare(parallelBounds(in, m))
	t1 := time.Now()

	m.fork(trace.PhaseInsert, p, func(w int) { insert(tree, w) })
	t2 := time.Now()

	m.TreeStats = octree.ComputeMomentsFork(tree, bodyData(in.Bodies), p, func(p int, fn func(w int)) {
		m.fork(trace.PhaseMoments, p, fn)
	})
	t3 := time.Now()

	m.Timing = Timing{Bounds: t1.Sub(t0), Insert: t2.Sub(t1), Moments: t3.Sub(t2)}
	if cfg.Trace.Active() {
		m.Trace = &trace.Summary{PerProc: make([]trace.ProcSummary, len(m.PerP))}
		for w := range m.PerP {
			m.Trace.PerProc[w].PhaseNs = m.PerP[w].PhaseNs
		}
	}
	publishBuild(m)
	return tree
}

// fork is par.Do for phase ph of m's build, and the one place a build's
// time is attributed: each share reads the clock as it starts and ends,
// adds the difference to its processor's PhaseNs[ph], and at the join
// each processor is charged the wait for the slowest share as
// PhaseNs[trace.PhaseBarrier] — the native analogue of the simulator's
// per-barrier wait, and the paper's load-imbalance signal.
func (m *Metrics) fork(ph trace.Phase, p int, fn func(w int)) {
	par.Do(p, func(w int) {
		start := m.now()
		fn(w)
		end := m.now()
		pc := &m.PerP[w]
		pc.PhaseNs[ph] += end - start
		pc.finish = end
	})
	join := m.now()
	for w := 0; w < p; w++ {
		pc := &m.PerP[w]
		pc.PhaseNs[trace.PhaseBarrier] += join - pc.finish
	}
}

// now is the build's clock: nanoseconds since its epoch.
func (m *Metrics) now() int64 { return time.Since(m.epoch).Nanoseconds() }

// freshTree is the prepare hook of a from-scratch build: reset the store
// and root a new tree (in arena 0, processor 0's) at the given cube.
func freshTree(s *octree.Store) prepareFn {
	return func(root vec.Cube) *octree.Tree {
		s.Reset()
		return octree.NewTree(s, 0, 0, root)
	}
}

func bodyData(b *phys.Bodies) octree.BodyData {
	return octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
}
