package core

import (
	"fmt"
	"time"

	"partree/internal/octree"
	"partree/internal/trace"
)

// procCounters is one processor's event counts, padded so that counters
// for different processors never share a cache line (the very false
// sharing the LOCAL data-structure redesign removes — our *measurement*
// must not suffer from it either).
type procCounters struct {
	Locks       int64 // lock acquisitions in the tree-build phase
	Cells       int64 // cells allocated
	Leaves      int64 // leaves allocated
	Retries     int64 // descents restarted after losing a race
	BodiesMoved int64 // UPDATE: bodies that crossed a leaf boundary
	BodiesBuilt int64 // bodies this processor loaded into the tree
	// PhaseNs is this processor's time in each phase, indexed by
	// trace.Phase: the wall time of its shares of the phase's forks, and
	// under trace.PhaseBarrier its waits at their joins for the slowest
	// share. The phase driver stamps it on every build, traced or not.
	PhaseNs [trace.NumPhases]int64
	finish  int64 // when this processor's share of the current fork ended
	_       [5]int64
}

// Reasons an UPDATE build rebuilt from scratch (Metrics.FreshReason).
// Whatever the reason, the build is SPACE's, into UPDATE's resident store.
const (
	// FreshFirst: the builder had no resident tree yet.
	FreshFirst = "first"
	// FreshStep0: the caller restarted the step sequence at step 0.
	FreshStep0 = "step0"
	// FreshRequested: the caller set Input.Rebuild (the rebuild rule or
	// an explicit client request).
	FreshRequested = "requested"
	// FreshRestart: the body set was resized across a step-sequence
	// discontinuity — an intentional restart with a new body set.
	FreshRestart = "restart"
	// FreshSwap: the body set was resized while the step sequence stayed
	// continuous — an accidental body-set swap under a resident tree.
	FreshSwap = "body-set swap"
	// FreshDiscontinuity: the step sequence jumped with the body set
	// unchanged; the retained bodyLeaf map can no longer be trusted.
	FreshDiscontinuity = "step discontinuity"
)

// Metrics aggregates per-processor counters for one build.
type Metrics struct {
	Alg    Algorithm
	PerP   []procCounters
	Timing Timing
	// TreeStats is the shape of the tree this build returned — what
	// octree.CollectStats would report, counted by the moments pass as it
	// visited each live node, so no reader walks the tree again for it.
	TreeStats octree.Stats
	// FreshRebuild reports that a resident builder (UPDATE) discarded
	// its retained tree and rebuilt from scratch this step instead of
	// repairing incrementally. Always false for the rebuilding
	// algorithms, which have no resident tree to lose.
	FreshRebuild bool
	// FreshReason names why FreshRebuild happened (Fresh* constants);
	// empty on incremental steps.
	FreshReason string
	// Trace is a copy of PerP's phase time, processor by processor, when
	// the builder ran with an enabled Config.Trace recorder; nil
	// otherwise.
	Trace *trace.Summary

	// epoch is the zero of the build's fork stamps.
	epoch time.Time
}

func newMetrics(a Algorithm, p int) *Metrics {
	return &Metrics{Alg: a, PerP: make([]procCounters, p)}
}

// TotalLocks sums lock acquisitions across processors.
func (m *Metrics) TotalLocks() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].Locks
	}
	return t
}

// LocksPerProc returns the per-processor lock counts (Figure 15).
func (m *Metrics) LocksPerProc() []int64 {
	out := make([]int64, len(m.PerP))
	for i := range m.PerP {
		out[i] = m.PerP[i].Locks
	}
	return out
}

// TotalCells sums cells allocated across processors.
func (m *Metrics) TotalCells() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].Cells
	}
	return t
}

// TotalLeaves sums leaves allocated across processors.
func (m *Metrics) TotalLeaves() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].Leaves
	}
	return t
}

// TotalRetries sums lost-race descent restarts.
func (m *Metrics) TotalRetries() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].Retries
	}
	return t
}

// TotalBodiesMoved sums UPDATE's cross-boundary moves.
func (m *Metrics) TotalBodiesMoved() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].BodiesMoved
	}
	return t
}

// TotalBodiesBuilt sums the bodies the processors loaded into the tree;
// a correct build's total is the body count (verify's law 1).
func (m *Metrics) TotalBodiesBuilt() int64 {
	var t int64
	for i := range m.PerP {
		t += m.PerP[i].BodiesBuilt
	}
	return t
}

// String summarizes the metrics in one line.
func (m *Metrics) String() string {
	return fmt.Sprintf("%s: locks=%d cells=%d leaves=%d retries=%d moved=%d build=%v",
		m.Alg, m.TotalLocks(), m.TotalCells(), m.TotalLeaves(), m.TotalRetries(),
		m.TotalBodiesMoved(), m.Timing.Total())
}
