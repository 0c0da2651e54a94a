// Package adapt closes the measured-cost feedback gap: costzones cuts
// its zones along *modeled* per-body costs (interaction counts from the
// previous force pass), while every build's core.Metrics carries what each
// processor actually spent inserting its zone. On skewed or time-evolving
// distributions the two disagree — the exact load-imbalance failure
// Singh's scheme was built to remove. This package attributes each step's
// measured per-processor insert time back to the bodies the processor
// owned, blends it into a per-body cost estimate with an exponentially
// weighted update, and cuts the next step's zones along the corrected
// estimate instead. Controller implements core.Adapter, so a
// core.Stepper (and through it an internal/engine lease and a partreed
// session) carries the loop.
package adapt

import "partree/internal/octree"

const (
	// defaultAlpha is the EWMA blend weight for the measured estimate.
	defaultAlpha = 0.3
	// minEst/maxEst clamp a body's relative estimate so one bad
	// measurement (or a NaN from a zero division upstream) can neither
	// zero a body out of the partition nor monopolize it.
	minEst = 1e-6
	maxEst = 1e6
	// costScale is the mean integer cost Costs renders the estimates at:
	// large enough that estimate ratios survive rounding, small enough
	// that n·maxCostInt cannot overflow costzones' acc*p accumulator.
	costScale = 1024
	// maxCostInt caps a single rendered cost at 2^24, so even 2^22
	// bodies of maximal cost keep Σcost·p below int64 range.
	maxCostInt = 1 << 24
)

// Ledger maintains the measurement-corrected per-body cost estimate. The
// estimate is kept *relative* — normalized to mean 1 after every update —
// because the two inputs have incompatible units (modeled interaction
// counts vs measured nanoseconds); only each body's share of the total
// matters to a partition.
type Ledger struct {
	alpha float64
	est   []float64
	// work and rendered are scratch reused across steps so the per-step
	// loop stays allocation-free once warm.
	work     []int64
	rendered []int64
}

// NewLedger returns a ledger blending measurements at weight alpha
// (0 < alpha ≤ 1); out-of-range values select the default 0.3.
func NewLedger(alpha float64) *Ledger {
	if !(alpha > 0) || alpha > 1 {
		alpha = defaultAlpha
	}
	return &Ledger{alpha: alpha}
}

// seed sizes the estimate for n bodies, initializing each body's share
// from the modeled costs in d (uniform when they carry no signal). A
// body-count change resets the ledger: the estimate indexes bodies by
// position, which a resize invalidates.
func (lg *Ledger) seed(d octree.BodyData, n int) {
	if len(lg.est) == n {
		return
	}
	lg.est = make([]float64, n)
	var total int64
	if d.Cost != nil {
		for b := int32(0); int(b) < n; b++ {
			total += d.CostOf(b)
		}
	}
	if total <= 0 {
		for i := range lg.est {
			lg.est[i] = 1
		}
		return
	}
	mean := float64(total) / float64(n)
	for b := int32(0); int(b) < n; b++ {
		lg.est[b] = clampEst(float64(d.CostOf(b)) / mean)
	}
	lg.normalize()
}

// Observe attributes one step's measured per-processor insert time back
// to the bodies each processor owned and blends it into the estimate:
// zone w's bodies collectively earn work_w/Σwork of the total estimate
// mass, distributed within the zone proportionally to their current
// estimates (the measurement cannot see inside a zone, so intra-zone
// shape is preserved). insertNs[w] is processor w's measured insert time.
// Returns whether a correction was applied; mismatched or signal-free
// measurements (a processor-count mismatch, zero insert time) are skipped.
func (lg *Ledger) Observe(assign [][]int32, insertNs []int64) bool {
	if len(insertNs) != len(assign) || len(assign) == 0 {
		return false
	}
	n := 0
	for _, zone := range assign {
		n += len(zone)
	}
	if n == 0 {
		return false
	}
	if len(lg.est) != n {
		// First contact through Observe (Partition has not seeded yet):
		// start uniform; the modeled shape arrives with the next seed.
		lg.est = make([]float64, n)
		for i := range lg.est {
			lg.est[i] = 1
		}
	}
	if cap(lg.work) < len(assign) {
		lg.work = make([]int64, len(assign))
	}
	work := lg.work[:len(assign)]
	var totalNs int64
	for w, v := range insertNs {
		if v < 0 {
			v = 0
		}
		work[w] = v
		totalNs += v
	}
	if totalNs <= 0 {
		return false
	}
	var totalEst float64
	zoneEst := make([]float64, len(assign))
	for w, zone := range assign {
		var ze float64
		for _, b := range zone {
			ze += lg.est[b]
		}
		zoneEst[w] = ze
		totalEst += ze
	}
	if !(totalEst > 0) {
		return false
	}
	for w, zone := range assign {
		if len(zone) == 0 {
			continue
		}
		target := float64(work[w]) / float64(totalNs) * totalEst
		scale := 0.0
		if zoneEst[w] > 0 {
			scale = target / zoneEst[w]
		}
		for _, b := range zone {
			measured := lg.est[b] * scale
			if zoneEst[w] <= 0 {
				measured = target / float64(len(zone))
			}
			lg.est[b] = clampEst((1-lg.alpha)*lg.est[b] + lg.alpha*measured)
		}
	}
	lg.normalize()
	return true
}

// Costs renders the estimate as integer per-body costs (mean costScale,
// clamped to [1, maxCostInt]) plus their exact sum — the pair
// partition.CostzonesTotal consumes. The ledger is seeded from d's
// modeled costs if this is its first sight of the body set. The returned
// slice is the ledger's scratch: valid until the next Costs call.
func (lg *Ledger) Costs(d octree.BodyData, n int) ([]int64, int64) {
	lg.seed(d, n)
	if cap(lg.rendered) < n {
		lg.rendered = make([]int64, n)
	}
	out := lg.rendered[:n]
	var total int64
	for i, e := range lg.est {
		c := int64(e * costScale)
		if c < 1 {
			c = 1
		} else if c > maxCostInt {
			c = maxCostInt
		}
		out[i] = c
		total += c
	}
	return out, total
}

// Estimates exposes the relative per-body estimate for tests and
// diagnostics; the slice is live, not a copy.
func (lg *Ledger) Estimates() []float64 { return lg.est }

// clampEst bounds one estimate, mapping NaN (which fails every
// comparison) to the floor.
func clampEst(v float64) float64 {
	if !(v > minEst) {
		return minEst
	}
	if v > maxEst {
		return maxEst
	}
	return v
}

// normalize rescales the estimate to mean 1 so EWMA drift cannot walk
// the whole distribution toward a clamp over many steps.
func (lg *Ledger) normalize() {
	if len(lg.est) == 0 {
		return
	}
	var sum float64
	for _, e := range lg.est {
		sum += e
	}
	mean := sum / float64(len(lg.est))
	if !(mean > 0) {
		for i := range lg.est {
			lg.est[i] = 1
		}
		return
	}
	for i := range lg.est {
		lg.est[i] = clampEst(lg.est[i] / mean)
	}
}
