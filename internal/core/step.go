package core

import (
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
)

// StepInput is one timestep of a long-lived session driven through a
// Stepper. The caller mutates the Stepper's bodies in place (drift, or
// overwriting positions from a client) before each Step call; StepInput
// carries only the per-step control knobs.
type StepInput struct {
	// Rebuild forces a fresh rebuild this step regardless of what the
	// fallback policy decided.
	Rebuild bool
}

// StepResult is the outcome of one Stepper step.
type StepResult struct {
	Step    int
	Tree    *octree.Tree
	Metrics *Metrics
	// ChurnFrac is the fraction of bodies that crossed their leaf
	// boundary this step (0 on fresh rebuilds, which move everything by
	// definition).
	ChurnFrac float64
	// DepthSkew is max/mean live-leaf depth — the shape signal the
	// fallback policy watches. UPDATE never collapses cells, so a
	// long-resident tree's max leaf depth creeps up while the mean stays
	// put. 0 for an empty tree.
	DepthSkew float64
	// Fresh reports the builder rebuilt from scratch; Reason names why.
	Fresh  bool
	Reason string
	// Fallback reports this step's rebuild was requested by the
	// auto-fallback policy rather than by the caller.
	Fallback bool
}

// Adapter is the measured-cost feedback hook a Stepper consults between
// steps: it sees each finished step's owner assignment and metrics, and
// cuts the next step's body partition. Implemented by internal/adapt;
// declared here so core never depends on the adaptive layer.
type Adapter interface {
	// Observe attributes the just-finished step's measured per-processor
	// insert time (m.PerP[w].InsertNs, which every build carries) back to
	// the zones of assign — the assignment the step was built with.
	Observe(assign [][]int32, m *Metrics)
	// Partition cuts the next step's body assignment over the finished
	// tree — typically costzones along measurement-corrected costs. It
	// must cover every body exactly once.
	Partition(t *octree.Tree, d octree.BodyData, p int) [][]int32
}

// Stepper drives a resident UPDATE builder step over step, the way a
// session does: it owns the step counter, repartitions the bodies after
// every step so the assignment tracks the moving distribution, feeds each
// step's churn and depth-skew stats to a FallbackController, and converts
// the controller's verdict into an Input.Rebuild on the following step.
// This is the step-over-step surface internal/engine leases pin;
// internal/nbody keeps its own loop because it also owns integration and
// costzones repartitioning.
type Stepper struct {
	cfg    Config
	b      Builder
	ctrl   *FallbackController
	bodies *phys.Bodies
	assign [][]int32
	step   int
	// pendingRebuild is the controller's verdict from the previous step,
	// consumed (and reset) by the next Step call.
	pendingRebuild bool
	// adapter, when non-nil, closes the measured-cost feedback loop: it
	// replaces the static costzones repartition.
	adapter Adapter
}

// NewStepper pins a fresh UPDATE builder over bodies. Step 0
// builds over a spatially compact Morton split; every later step's
// assignment is recut with costzones over the freshly built tree, so the
// partition follows the bodies instead of freezing at step 0.
func NewStepper(cfg Config, bodies *phys.Bodies, policy FallbackPolicy) *Stepper {
	cfg = cfg.Normalized()
	return &Stepper{
		cfg:    cfg,
		b:      New(UPDATE, cfg),
		ctrl:   NewFallbackController(policy),
		bodies: bodies,
		assign: SpatialAssign(bodies, cfg.P),
	}
}

// NewAdaptiveStepper is NewStepper with a measured-cost adapter in the
// loop. What the adapter attributes rides every build's Metrics, so an
// adaptive step builds exactly as a static one does.
func NewAdaptiveStepper(cfg Config, bodies *phys.Bodies, policy FallbackPolicy, a Adapter) *Stepper {
	st := NewStepper(cfg, bodies, policy)
	st.adapter = a
	return st
}

// Bodies returns the resident body state for in-place mutation between
// steps. The slice headers must not be replaced; N is fixed for the
// stepper's lifetime.
func (st *Stepper) Bodies() *phys.Bodies { return st.bodies }

// Builder exposes the pinned resident builder for storage accounting
// (engine.Stats aggregates its store).
func (st *Stepper) Builder() Builder { return st.b }

// Steps returns how many steps have been taken.
func (st *Stepper) Steps() int { return st.step }

// Assign returns the body assignment the next Step will build with. The
// returned slices are the stepper's own: read-only for callers.
func (st *Stepper) Assign() [][]int32 { return st.assign }

// Step builds (or repairs) the tree for the current body state and
// advances the step counter.
func (st *Stepper) Step(in StepInput) *StepResult {
	fallback := st.pendingRebuild && !in.Rebuild
	st.pendingRebuild = false

	bi := &Input{
		Bodies:  st.bodies,
		Assign:  st.assign,
		Step:    st.step,
		Rebuild: in.Rebuild || fallback,
	}
	tree, m := st.b.Build(bi)

	res := &StepResult{
		Step:     st.step,
		Tree:     tree,
		Metrics:  m,
		Fresh:    m.FreshRebuild,
		Reason:   m.FreshReason,
		Fallback: fallback && m.FreshRebuild,
	}
	if n := st.bodies.N(); n > 0 && !m.FreshRebuild {
		res.ChurnFrac = float64(m.TotalBodiesMoved()) / float64(n)
	}
	if ts := octree.CollectStats(tree); ts.AvgDepth > 0 {
		res.DepthSkew = float64(ts.MaxDepth) / ts.AvgDepth
	}
	st.pendingRebuild = st.ctrl.Observe(res.ChurnFrac, res.DepthSkew, m.FreshRebuild)
	st.repartition(tree, m)
	st.step++
	return res
}

// repartition recuts the body assignment for the next step over the tree
// just built — the staleness fix: before it, the step-0 partition (and
// its costs) served every subsequent step unchanged. Without an adapter
// the cut is plain costzones over the modeled costs; with one, the
// adapter observes this step's measured times and cuts along its
// corrected costs.
func (st *Stepper) repartition(tree *octree.Tree, m *Metrics) {
	if st.bodies.N() == 0 {
		return
	}
	d := bodyData(st.bodies)
	if st.adapter == nil {
		st.assign = partition.Costzones(tree, d, st.cfg.P)
		return
	}
	st.adapter.Observe(st.assign, m)
	st.assign = st.adapter.Partition(tree, d, st.cfg.P)
}
