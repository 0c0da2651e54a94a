package harness

import (
	"sync/atomic"

	"partree/internal/obs"
)

// sessionObs is the session's sweep-progress instrumentation: how many
// grid cells the current reproduction has enqueued and finished, and
// which figure is being regenerated right now. Maintained always (a few
// atomic adds per experiment, one per cell); exposed when a binary runs
// with -http so `partree paperrepro -http :9090` can be watched mid-sweep.
type sessionObs struct {
	experiments *obs.Counter               // experiments started
	cellsTotal  atomic.Int64               // sweep cells enqueued across experiments
	cellsDone   atomic.Int64               // sweep cells whose result is available
	current     atomic.Pointer[Experiment] // being regenerated (nil when idle)
}

// RegisterObs exposes the session's sweep progress on reg.
func (s *Session) RegisterObs(reg *obs.Registry) error {
	o := &s.obs
	return reg.Register(
		o.experiments,
		obs.NewGaugeFunc("partree_harness_cells_total",
			"Sweep cells enqueued across all experiments so far.",
			func() float64 { return float64(o.cellsTotal.Load()) }),
		obs.NewGaugeFunc("partree_harness_cells_done",
			"Sweep cells whose result is available.",
			func() float64 { return float64(o.cellsDone.Load()) }),
		o,
	)
}

// Collect renders the in-progress figure as an info-style gauge: value 1
// with the experiment's id/title as labels, and no series at all while the
// session is idle.
func (o *sessionObs) Collect(out []obs.Family) []obs.Family {
	fam := obs.Family{
		Name: "partree_harness_current_experiment",
		Help: "The experiment currently being regenerated (1 while one is running).",
		Type: obs.TypeGauge,
	}
	if e := o.current.Load(); e != nil {
		fam.Series = []obs.Series{{
			Labels: []obs.Label{{Name: "id", Value: e.ID}, {Name: "title", Value: e.Title}},
			Value:  1,
		}}
	}
	return append(out, fam)
}
