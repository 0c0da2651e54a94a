package trace

import (
	"sync/atomic"

	"partree/internal/obs"
)

// MetricsBridge folds per-build trace Summaries into monotone live
// counters — the summary → metrics bridge. Post-hoc trace files answer
// "where did *that* build's time go"; the bridge answers the same
// question continuously over every traced build a process runs, as
// scrapeable totals: time per sub-phase, lock wait vs hold, lock events.
// Recording one summary is a few atomic adds per processor; nothing is
// recorded at all for untraced builds.
type MetricsBridge struct {
	builds     atomic.Int64
	phaseNs    [NumPhases]atomic.Int64
	lockEvents atomic.Int64
	lockWaitNs atomic.Int64
	lockHoldNs atomic.Int64
}

// NewMetricsBridge creates an empty bridge.
func NewMetricsBridge() *MetricsBridge { return &MetricsBridge{} }

// Record accumulates one build's summary. A nil summary is a no-op.
func (b *MetricsBridge) Record(s *Summary) {
	if b == nil || s == nil {
		return
	}
	b.builds.Add(1)
	for w := range s.PerProc {
		ps := &s.PerProc[w]
		for ph := 0; ph < NumPhases; ph++ {
			b.phaseNs[ph].Add(ps.PhaseNs[ph])
		}
		b.lockEvents.Add(ps.LockEvents)
		b.lockWaitNs.Add(ps.LockWaitNs)
		b.lockHoldNs.Add(ps.LockHoldNs)
	}
}

// Collect implements obs.Collector: phase seconds as one labeled family
// plus lock wait/hold/event totals, all summed across processors.
func (b *MetricsBridge) Collect(out []obs.Family) []obs.Family {
	phase := obs.Family{
		Name: "partree_trace_phase_seconds_total",
		Help: "Per-processor time in each build sub-phase, summed over traced builds.",
		Type: obs.TypeCounter,
	}
	for ph := 0; ph < NumPhases; ph++ {
		phase.Series = append(phase.Series, obs.Series{
			Labels: []obs.Label{{Name: "phase", Value: Phase(ph).String()}},
			Value:  float64(b.phaseNs[ph].Load()) / 1e9,
		})
	}
	one := func(name, help string, typ obs.Type, v float64) obs.Family {
		return obs.Family{Name: name, Help: help, Type: typ, Series: []obs.Series{{Value: v}}}
	}
	return append(out,
		phase,
		one("partree_trace_builds_total", "Builds whose trace summary was recorded.",
			obs.TypeCounter, float64(b.builds.Load())),
		one("partree_trace_lock_events_total", "Lock acquisitions observed by tracing.",
			obs.TypeCounter, float64(b.lockEvents.Load())),
		one("partree_trace_lock_wait_seconds_total", "Time spent waiting to acquire tree locks.",
			obs.TypeCounter, float64(b.lockWaitNs.Load())/1e9),
		one("partree_trace_lock_hold_seconds_total", "Time spent holding tree locks.",
			obs.TypeCounter, float64(b.lockHoldNs.Load())/1e9),
	)
}
