package adapt

import (
	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/trace"
)

// Options configures a Controller. The zero value is the documented
// default behavior.
type Options struct {
	// Alpha is the ledger's EWMA blend weight; out of (0,1] selects 0.3.
	Alpha float64
	// Tuner bounds the knob auto-tuner; zero fields select defaults.
	Tuner TunerPolicy
	// DisableTuner keeps the measured-cost repartitioning but never
	// changes a knob — for benchmarking the ledger in isolation, or
	// sessions whose knobs are externally managed.
	DisableTuner bool
}

// Controller is the session-side end of the feedback loop: one per
// adaptive core.Stepper, implementing core.Adapter. Not safe for
// concurrent use — like the Stepper it serves, a session owns exactly
// one. Every controller also folds its activity into the package-level
// totals that internal/engine exposes as partree_adapt_* metrics.
type Controller struct {
	ledger *Ledger
	tuner  *Tuner
	opts   Options
	// n is the body count of the last partition, which the tuner needs
	// to resolve the SPACE threshold's n-dependent default.
	n int
}

// NewController builds the adapter for a session configured with cfg.
// cfg.P caps how far the tuner's recovery rule can restore parallelism.
func NewController(cfg core.Config, opts Options) *Controller {
	cfg = cfg.Normalized()
	c := &Controller{
		ledger: NewLedger(opts.Alpha),
		tuner:  NewTuner(opts.Tuner, cfg.P),
		opts:   opts,
	}
	sessions.Inc()
	publishKnobs(cfg, resolveSpaceThreshold(cfg, 0))
	return c
}

// Ledger exposes the controller's cost ledger for tests and diagnostics.
func (c *Controller) Ledger() *Ledger { return c.ledger }

// Observe implements core.Adapter: it feeds the finished step's measured
// per-processor times to the ledger (cost attribution) and the tuner
// (knob signals). Untraced steps are a no-op beyond advancing the
// tuner's cooldown clock.
func (c *Controller) Observe(assign [][]int32, sum *trace.Summary) {
	if c.ledger.Observe(assign, sum) {
		corrections.Inc()
	}
	c.tuner.Observe(sum)
	if sum != nil {
		if r := sum.ImbalanceRatio(); r > 0 {
			skewBefore.set(r)
		}
	}
}

// Retune implements core.Adapter: at most one knob moves per decision,
// behind the tuner's streak + cooldown hysteresis.
func (c *Controller) Retune(cur core.Config) (core.Config, bool) {
	if c.opts.DisableTuner {
		return cur, false
	}
	next, _, changed := c.tuner.Propose(cur, c.n)
	if changed {
		knobChanges.Inc()
		publishKnobs(next, resolveSpaceThreshold(next, c.n))
	}
	return next, changed
}

// Partition implements core.Adapter: costzones over the ledger's
// measurement-corrected costs instead of the modeled costs baked into
// the tree's moments — CostzonesTotal because the corrected total no
// longer matches the root's Cost moment.
func (c *Controller) Partition(t *octree.Tree, d octree.BodyData, p int) [][]int32 {
	n := len(d.Pos)
	c.n = n
	costs, total := c.ledger.Costs(d, n)
	dd := octree.BodyData{Pos: d.Pos, Mass: d.Mass, Cost: costs}
	assign := partition.CostzonesTotal(t, dd, p, total)
	repartitions.Inc()
	skewAfter.set(partition.Imbalance(assign, dd))
	return assign
}

var _ core.Adapter = (*Controller)(nil)
