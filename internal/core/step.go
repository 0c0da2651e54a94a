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
//
// The stepper keeps its bodies resident in Morton order (see resort), so
// the passes of a step — bounds, repair scan, moments, the cost cut —
// each stream the body columns front to back instead of chasing
// generator-order indices through them.
type Stepper struct {
	cfg    Config
	b      Builder
	ctrl   *FallbackController
	bodies *phys.Bodies
	// index is the identity 0..n-1. Storage order is the spatial order,
	// so a static partition is p contiguous ranges of it.
	index  []int32
	assign [][]int32
	step   int
	// pendingRebuild is the controller's verdict from the previous step,
	// consumed (and reset) by the next Step call.
	pendingRebuild bool
	// adapter, when non-nil, closes the measured-cost feedback loop: it
	// replaces the static costzones repartition.
	adapter Adapter
}

// NewStepper pins a fresh UPDATE builder over bodies and sorts them, in
// place, into Morton order: bodies stays the object the stepper reads and
// the caller mutates, but its slots are reordered — bodies.ID maps each
// slot back to the index the caller knew the body by. Every step's
// assignment is a cost-balanced cut of that order, recut after each
// build, so the partition follows the costs instead of freezing at step 0.
func NewStepper(cfg Config, bodies *phys.Bodies, policy FallbackPolicy) *Stepper {
	cfg = cfg.Normalized()
	st := &Stepper{
		cfg:    cfg,
		b:      New(UPDATE, cfg),
		ctrl:   NewFallbackController(policy),
		bodies: bodies,
		assign: make([][]int32, cfg.P),
	}
	st.resort()
	return st
}

// resort makes the bodies' Morton order their storage order and recuts
// the assignment over it. Slots change meaning, so it may run only where
// nothing slot-keyed survives: at construction, and ahead of a build that
// starts from scratch (which rewrites the builder's body→leaf map).
func (st *Stepper) resort() {
	b := st.bodies
	order := partition.Order(b.Pos, b.Bounds(rootMargin))
	b.Permute(order)
	// The sort's output array, spent, becomes the identity the zones are
	// ranges of.
	for i := range order {
		order[i] = int32(i)
	}
	st.index = order
	partition.CostRanges(st.index, b.Cost, st.assign)
}

// NewAdaptiveStepper is NewStepper with a measured-cost adapter in the
// loop. What the adapter attributes rides every build's Metrics, so an
// adaptive step builds exactly as a static one does. The adapter keeps
// per-slot state (its cost ledger) and the interface gives it no way to
// follow a permutation, so an adaptive session is sorted once, at
// construction, and never re-sorted.
func NewAdaptiveStepper(cfg Config, bodies *phys.Bodies, policy FallbackPolicy, a Adapter) *Stepper {
	st := NewStepper(cfg, bodies, policy)
	st.adapter = a
	return st
}

// Bodies returns the resident body state for in-place mutation between
// steps. The slice headers must not be replaced; N is fixed for the
// stepper's lifetime. Slots are in the stepper's order, not the
// generator's: address a particular body through Bodies().ID, and do not
// hold a slot number across a Step that rebuilds.
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
	rebuild := in.Rebuild || fallback
	if rebuild && st.adapter == nil {
		// The bodies have drifted since the last sort — far, if the
		// policy gave up on repair — and this build starts from scratch
		// anyway: the one moment a re-sort costs nothing but itself.
		st.resort()
	}

	bi := &Input{
		Bodies:  st.bodies,
		Assign:  st.assign,
		Step:    st.step,
		Rebuild: rebuild,
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
	if ts := m.TreeStats; ts.AvgDepth > 0 {
		res.DepthSkew = float64(ts.MaxDepth) / ts.AvgDepth
	}
	st.pendingRebuild = st.ctrl.Observe(res.ChurnFrac, res.DepthSkew, m.FreshRebuild)
	st.repartition(tree, m)
	st.step++
	return res
}

// repartition recuts the body assignment for the next step — the
// staleness fix: before it, the step-0 partition (and its costs) served
// every subsequent step unchanged. Without an adapter the cut is
// costzones over the modeled costs, taken along the resident order: p
// ranges of the index, no tree walk, nothing allocated. With one, the
// adapter observes this step's measured times and cuts the tree just
// built along its corrected costs.
func (st *Stepper) repartition(tree *octree.Tree, m *Metrics) {
	if st.adapter == nil {
		partition.CostRanges(st.index, st.bodies.Cost, st.assign)
		return
	}
	if st.bodies.N() == 0 {
		return
	}
	st.adapter.Observe(st.assign, m)
	st.assign = st.adapter.Partition(tree, bodyData(st.bodies), st.cfg.P)
}
