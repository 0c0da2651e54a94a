package adapt

import (
	"math"
	"sync/atomic"

	"partree/internal/core"
	"partree/internal/obs"
)

// Package-level live metrics. The counters aggregate across every
// controller in the process; the gauges are last-writer-wins samples of
// the most recent controller activity — with one adaptive session they
// read exactly as per-session values, with many they show the freshest.
var (
	sessions     = obs.NewCounter("partree_adapt_sessions_total", "Adaptive controllers constructed.")
	corrections  = obs.NewCounter("partree_adapt_corrections_total", "Measured-cost ledger updates applied to traced steps.")
	knobChanges  = obs.NewCounter("partree_adapt_knob_changes_total", "Auto-tuner decisions that moved a knob.")
	repartitions = obs.NewCounter("partree_adapt_repartitions_total", "Measured-cost costzones cuts served to steppers.")

	// skewBefore is the imbalance the hardware reported before
	// correction, skewAfter the one the next step should see.
	skewBefore, skewAfter               lastValue
	leafCap, spaceThreshold, effectiveP lastValue
)

// lastValue is a last-writer-wins sample.
type lastValue struct{ bits atomic.Uint64 }

func (l *lastValue) set(v float64) { l.bits.Store(math.Float64bits(v)) }
func (l *lastValue) get() float64  { return math.Float64frombits(l.bits.Load()) }

// RegisterObs exposes the package's adaptive activity on reg as the
// partree_adapt_* families.
func RegisterObs(reg *obs.Registry) error {
	return reg.Register(
		sessions, corrections, knobChanges, repartitions,
		obs.NewGaugeFunc("partree_adapt_skew_before", "Latest measured max/mean insert-time skew before correction.", skewBefore.get),
		obs.NewGaugeFunc("partree_adapt_skew_after", "Latest predicted max/mean cost skew of the corrected partition.", skewAfter.get),
		obs.NewGaugeFunc("partree_adapt_leafcap", "Latest tuned leaf capacity.", leafCap.get),
		obs.NewGaugeFunc("partree_adapt_space_threshold", "Latest tuned SPACE partition threshold.", spaceThreshold.get),
		obs.NewGaugeFunc("partree_adapt_effective_p", "Latest tuned effective processor count.", effectiveP.get),
	)
}

// publishKnobs records the knob gauges after construction or a retune.
func publishKnobs(cfg core.Config, threshold int) {
	cfg = cfg.Normalized()
	leafCap.set(float64(cfg.LeafCap))
	spaceThreshold.set(float64(threshold))
	effectiveP.set(float64(cfg.P))
}
