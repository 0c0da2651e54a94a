package core

import (
	"partree/internal/obs"
	"partree/internal/trace"
)

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

// buildPhaseSeconds is partree_build_phase_seconds_total{alg,phase}:
// PerP's PhaseNs summed over processors and builds, one series a phase.
var buildPhaseSeconds = obs.NewCounterVec("partree_build_phase_seconds_total",
	"Per-processor time in each build phase (barrier: waiting at a join), summed over processors and builds.", "alg", "phase")

// buildCounters[a][f] is algorithm a's child of buildFamilies[f], and
// phaseCounters[a][ph] its child of buildPhaseSeconds, resolved once so
// publishing a build takes no lock.
var buildCounters, phaseCounters = func() (c [NumAlgorithms][len(buildFamilies)]*obs.Counter, pc [NumAlgorithms][trace.NumPhases]*obs.Counter) {
	for _, a := range Algorithms() {
		for f, fam := range buildFamilies {
			c[a][f] = fam.With(a.String())
		}
		for ph := range pc[a] {
			pc[a][ph] = buildPhaseSeconds.With(a.String(), trace.Phase(ph).String())
		}
	}
	return c, pc
}()

// publishBuild adds one completed build's metrics to its algorithm's
// children, in buildFamilies' order, then its phase time.
func publishBuild(m *Metrics) {
	for f, v := range [len(buildFamilies)]int64{1, m.TotalLocks(), m.TotalCells(), m.TotalLeaves(),
		m.TotalRetries(), m.TotalBodiesBuilt(), m.TotalBodiesMoved()} {
		buildCounters[m.Alg][f].Add(float64(v))
	}
	var ns [trace.NumPhases]int64
	for w := range m.PerP {
		for ph, v := range m.PerP[w].PhaseNs {
			ns[ph] += v
		}
	}
	for ph, c := range phaseCounters[m.Alg] {
		c.Add(float64(ns[ph]) / 1e9)
	}
}

// RegisterObs adds the partree_build_* families to reg. They are
// process-global: register once per registry.
func RegisterObs(reg *obs.Registry) error {
	cs := []obs.Collector{buildPhaseSeconds}
	for _, fam := range buildFamilies {
		cs = append(cs, fam)
	}
	return reg.Register(cs...)
}
