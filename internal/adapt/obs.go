package adapt

import (
	"math"
	"sync/atomic"

	"partree/internal/obs"
)

// Package-level live metrics. The counters aggregate across every
// controller in the process; the gauges are last-writer-wins samples of
// the most recent controller activity — with one adaptive session they
// read exactly as per-session values, with many they show the freshest.
var (
	sessions     = obs.NewCounter("partree_adapt_sessions_total", "Adaptive controllers constructed.")
	corrections  = obs.NewCounter("partree_adapt_corrections_total", "Measured-cost ledger updates applied to traced steps.")
	repartitions = obs.NewCounter("partree_adapt_repartitions_total", "Measured-cost costzones cuts served to steppers.")

	// skewBefore is the imbalance the hardware reported before
	// correction, skewAfter the one the next step should see.
	skewBefore, skewAfter lastValue
)

// lastValue is a last-writer-wins sample.
type lastValue struct{ bits atomic.Uint64 }

func (l *lastValue) set(v float64) { l.bits.Store(math.Float64bits(v)) }
func (l *lastValue) get() float64  { return math.Float64frombits(l.bits.Load()) }

// RegisterObs exposes the package's adaptive activity on reg as the
// partree_adapt_* families.
func RegisterObs(reg *obs.Registry) error {
	return reg.Register(
		sessions, corrections, repartitions,
		obs.NewGaugeFunc("partree_adapt_skew_before", "Latest measured max/mean insert-time skew before correction.", skewBefore.get),
		obs.NewGaugeFunc("partree_adapt_skew_after", "Latest predicted max/mean cost skew of the corrected partition.", skewAfter.get),
	)
}
