package adapt

import (
	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/stats"
)

// Options configures a Controller. The zero value is the documented
// default behavior.
type Options struct {
	// Alpha is the ledger's EWMA blend weight; out of (0,1] selects 0.3.
	Alpha float64
}

// Controller is the session-side end of the feedback loop: one per
// adaptive core.Stepper, implementing core.Adapter. Not safe for
// concurrent use — like the Stepper it serves, a session owns exactly
// one. Every controller also folds its activity into the package-level
// totals that internal/engine exposes as partree_adapt_* metrics.
type Controller struct {
	ledger *Ledger
	// insertNs is scratch for the step's per-processor insert times.
	insertNs []int64
}

// NewController builds the adapter for one session.
func NewController(opts Options) *Controller {
	sessions.Inc()
	return &Controller{ledger: NewLedger(opts.Alpha)}
}

// Ledger exposes the controller's cost ledger: the h1 driver and the
// skew gates feed it synthesized measurements directly.
func (c *Controller) Ledger() *Ledger { return c.ledger }

// Observe implements core.Adapter: it feeds the finished step's measured
// per-processor insert times to the ledger (cost attribution) and
// publishes their max/mean — the paper's Table 2 load-imbalance figure.
func (c *Controller) Observe(assign [][]int32, m *core.Metrics) {
	c.insertNs = c.insertNs[:0]
	for w := range m.PerP {
		c.insertNs = append(c.insertNs, m.PerP[w].InsertNs)
	}
	if c.ledger.Observe(assign, c.insertNs) {
		corrections.Inc()
	}
	if ns := stats.Summarize(c.insertNs); ns.Mean > 0 {
		skewBefore.set(ns.Max / ns.Mean)
	}
}

// Partition implements core.Adapter: costzones over the ledger's
// measurement-corrected costs instead of the modeled costs baked into
// the tree's moments — CostzonesTotal because the corrected total no
// longer matches the root's Cost moment.
func (c *Controller) Partition(t *octree.Tree, d octree.BodyData, p int) [][]int32 {
	n := len(d.Pos)
	costs, total := c.ledger.Costs(d, n)
	dd := octree.BodyData{Pos: d.Pos, Mass: d.Mass, Cost: costs}
	assign := partition.CostzonesTotal(t, dd, p, total)
	repartitions.Inc()
	skewAfter.set(partition.Imbalance(assign, dd))
	return assign
}

var _ core.Adapter = (*Controller)(nil)
