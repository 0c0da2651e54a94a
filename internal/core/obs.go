package core

import "sync/atomic"

// Package-level per-algorithm build totals, fed from each completed
// build's *Metrics by the phase driver (runPhases), the single point
// every build completes through. The only cost is a handful of atomic
// adds per *build* (never per body insert), paid after the build's timed
// phases have finished. The totals are monotone
// process-lifetime counters; internal/obs exposes them over HTTP as the
// partree_build_* series (see internal/runner's registration).
//
// core deliberately does not import internal/obs — these are plain
// atomics, and the exposition layer adapts them, so the algorithms stay
// leaf dependencies.

// BuildTotals is a snapshot of one algorithm's cumulative build counts.
type BuildTotals struct {
	Builds  int64 // completed Build calls
	Locks   int64 // lock acquisitions across those builds
	Cells   int64 // cells allocated
	Leaves  int64 // leaves allocated
	Retries int64 // lost-race descent restarts
	Bodies  int64 // bodies loaded into trees
	Moved   int64 // UPDATE: bodies that crossed a leaf boundary
}

// algTotals is the atomic backing store, padded so algorithms written
// from concurrent builds don't share cache lines.
type algTotals struct {
	builds, locks, cells, leaves, retries, bodies, moved atomic.Int64
	_                                                    [8]int64
}

var buildTotals [NumAlgorithms]algTotals

// publishBuild folds one completed build's metrics into the totals.
func publishBuild(m *Metrics) {
	a := int(m.Alg)
	if a < 0 || a >= NumAlgorithms {
		return
	}
	t := &buildTotals[a]
	t.builds.Add(1)
	t.locks.Add(m.TotalLocks())
	t.cells.Add(m.TotalCells())
	t.leaves.Add(m.TotalLeaves())
	t.retries.Add(m.TotalRetries())
	t.moved.Add(m.TotalBodiesMoved())
	t.bodies.Add(m.TotalBodiesBuilt())
}

// BuildTotalsFor snapshots the cumulative totals for one algorithm.
func BuildTotalsFor(a Algorithm) BuildTotals {
	t := &buildTotals[int(a)]
	return BuildTotals{
		Builds:  t.builds.Load(),
		Locks:   t.locks.Load(),
		Cells:   t.cells.Load(),
		Leaves:  t.leaves.Load(),
		Retries: t.retries.Load(),
		Bodies:  t.bodies.Load(),
		Moved:   t.moved.Load(),
	}
}
