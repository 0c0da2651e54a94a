package trace

import "partree/internal/obs"

// MetricsBridge folds per-build trace Summaries into monotone live
// counters — the summary → metrics bridge. Post-hoc trace files answer
// "where did *that* build's time go"; the bridge answers the same
// question continuously over every traced build a process runs, as
// scrapeable totals: time per sub-phase, lock wait vs hold, lock events,
// all summed across processors. Recording one summary is one add per
// counter; nothing is recorded at all for untraced builds.
type MetricsBridge struct {
	builds       *obs.Counter
	phases       *obs.Vec[*obs.Counter]
	phaseSeconds [NumPhases]*obs.Counter // phases' children, resolved once
	lockEvents   *obs.Counter
	lockWait     *obs.Counter
	lockHold     *obs.Counter
}

// NewMetricsBridge creates an empty bridge.
func NewMetricsBridge() *MetricsBridge {
	b := &MetricsBridge{
		builds: obs.NewCounter("partree_trace_builds_total", "Builds whose trace summary was recorded."),
		phases: obs.NewCounterVec("partree_trace_phase_seconds_total",
			"Per-processor time in each build sub-phase, summed over traced builds.", "phase"),
		lockEvents: obs.NewCounter("partree_trace_lock_events_total", "Lock acquisitions observed by tracing."),
		lockWait:   obs.NewCounter("partree_trace_lock_wait_seconds_total", "Time spent waiting to acquire tree locks."),
		lockHold:   obs.NewCounter("partree_trace_lock_hold_seconds_total", "Time spent holding tree locks."),
	}
	for ph := range b.phaseSeconds {
		b.phaseSeconds[ph] = b.phases.With(Phase(ph).String())
	}
	return b
}

// Record accumulates one build's summary. A nil summary is a no-op.
func (b *MetricsBridge) Record(s *Summary) {
	if s == nil {
		return
	}
	b.builds.Inc()
	for ph, ns := range s.PhaseTotals() {
		b.phaseSeconds[ph].Add(float64(ns) / 1e9)
	}
	b.lockEvents.Add(float64(s.TotalLockEvents()))
	var waitNs, holdNs int64
	for w := range s.PerProc {
		waitNs += s.PerProc[w].LockWaitNs
		holdNs += s.PerProc[w].LockHoldNs
	}
	b.lockWait.Add(float64(waitNs) / 1e9)
	b.lockHold.Add(float64(holdNs) / 1e9)
}

// RegisterObs exposes the bridge's totals on reg.
func (b *MetricsBridge) RegisterObs(reg *obs.Registry) error {
	return reg.Register(b.phases, b.builds, b.lockEvents, b.lockWait, b.lockHold)
}
