package adapt

import (
	"math"
	"sync/atomic"

	"partree/internal/core"
)

// Package-level live totals, following core's observability discipline:
// this package keeps plain atomics and no obs import; the exposition
// adapter lives in the registering package (internal/engine renders these
// as the partree_adapt_* families). Counters aggregate across every
// controller in the process; the gauges are last-writer-wins snapshots of
// the most recent controller activity — with one adaptive session they
// read exactly as per-session values, with many they show the freshest.
var totals struct {
	sessions     atomic.Int64
	corrections  atomic.Int64
	knobChanges  atomic.Int64
	repartitions atomic.Int64

	skewBefore atomic.Uint64 // float64 bits
	skewAfter  atomic.Uint64 // float64 bits

	leafCap        atomic.Int64
	spaceThreshold atomic.Int64
	effectiveP     atomic.Int64
}

// Totals is one scrape-time snapshot of the package's adaptive activity.
type Totals struct {
	// Sessions counts controllers constructed.
	Sessions int64
	// Corrections counts ledger updates applied (one per traced step
	// whose measurements were attributed).
	Corrections int64
	// KnobChanges counts tuner decisions that moved a knob.
	KnobChanges int64
	// Repartitions counts measured-cost costzones cuts served.
	Repartitions int64
	// SkewBefore is the latest measured max/mean insert-time ratio —
	// the imbalance the hardware reported before correction.
	SkewBefore float64
	// SkewAfter is the latest predicted max/mean cost ratio of the
	// corrected partition — the imbalance the next step should see.
	SkewAfter float64
	// LeafCap, SpaceThreshold, EffectiveP are the latest published knob
	// values.
	LeafCap        int64
	SpaceThreshold int64
	EffectiveP     int64
}

// Snapshot reads the live totals (atomic loads only; scrape-cheap).
func Snapshot() Totals {
	return Totals{
		Sessions:       totals.sessions.Load(),
		Corrections:    totals.corrections.Load(),
		KnobChanges:    totals.knobChanges.Load(),
		Repartitions:   totals.repartitions.Load(),
		SkewBefore:     loadFloat(&totals.skewBefore),
		SkewAfter:      loadFloat(&totals.skewAfter),
		LeafCap:        totals.leafCap.Load(),
		SpaceThreshold: totals.spaceThreshold.Load(),
		EffectiveP:     totals.effectiveP.Load(),
	}
}

// publishKnobs records the knob gauges after construction or a retune.
func publishKnobs(cfg core.Config, spaceThreshold int) {
	cfg = cfg.Normalized()
	totals.leafCap.Store(int64(cfg.LeafCap))
	totals.spaceThreshold.Store(int64(spaceThreshold))
	totals.effectiveP.Store(int64(cfg.P))
}

func storeFloat(u *atomic.Uint64, v float64) { u.Store(math.Float64bits(v)) }

func loadFloat(u *atomic.Uint64) float64 { return math.Float64frombits(u.Load()) }
