package core

import "partree/internal/obs"

// buildFamilies are the process-wide per-algorithm build totals, the
// partree_build_*{alg} counter families. The phase driver (runPhases),
// the single point every build completes through, adds each completed
// build's *Metrics into them — a handful of atomic adds per *build*
// (never per body insert), paid after the build's timed phases have
// finished. Every builder constructed through New feeds them, so native
// builds show up no matter which layer ran them (runner spec, nbody
// step, verify reference).
var buildFamilies = [...]*obs.Vec[*obs.Counter]{
	obs.NewCounterVec("partree_build_total", "Completed tree builds per algorithm.", "alg"),
	obs.NewCounterVec("partree_build_locks_total", "Lock acquisitions during tree builds.", "alg"),
	obs.NewCounterVec("partree_build_cells_total", "Cells allocated during tree builds.", "alg"),
	obs.NewCounterVec("partree_build_leaves_total", "Leaves allocated during tree builds.", "alg"),
	obs.NewCounterVec("partree_build_retries_total", "Lost-race descent restarts during tree builds.", "alg"),
	obs.NewCounterVec("partree_build_bodies_total", "Bodies loaded into trees.", "alg"),
	obs.NewCounterVec("partree_build_bodies_moved_total", "Bodies moved across leaf boundaries by UPDATE.", "alg"),
}

// buildCounters[a][f] is algorithm a's child of buildFamilies[f],
// resolved once so publishing a build takes no lock.
var buildCounters = func() (c [NumAlgorithms][len(buildFamilies)]*obs.Counter) {
	for _, a := range Algorithms() {
		for f, fam := range buildFamilies {
			c[a][f] = fam.With(a.String())
		}
	}
	return c
}()

// publishBuild adds one completed build's metrics to its algorithm's
// children, in buildFamilies' order.
func publishBuild(m *Metrics) {
	for f, v := range [len(buildFamilies)]int64{1, m.TotalLocks(), m.TotalCells(), m.TotalLeaves(),
		m.TotalRetries(), m.TotalBodiesBuilt(), m.TotalBodiesMoved()} {
		buildCounters[m.Alg][f].Add(float64(v))
	}
}

// RegisterObs adds the partree_build_* families to reg. They are
// process-global: register once per registry.
func RegisterObs(reg *obs.Registry) error {
	cs := make([]obs.Collector, len(buildFamilies))
	for f, fam := range buildFamilies {
		cs[f] = fam
	}
	return reg.Register(cs...)
}
