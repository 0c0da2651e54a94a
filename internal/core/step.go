package core

import (
	"time"

	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
)

// StepInput is one timestep of a long-lived session driven through a
// Stepper. The caller mutates the Stepper's bodies in place (drift, or
// overwriting positions from a client) before each Step call; StepInput
// carries only the per-step control knobs.
type StepInput struct {
	// Rebuild forces a fresh rebuild this step regardless of what the
	// rebuild rule decided.
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
	// Fresh reports the builder rebuilt from scratch; Reason names why.
	Fresh  bool
	Reason string
	// Fallback reports this step's rebuild was requested by the
	// rebuild rule rather than by the caller.
	Fallback bool
}

// Stepper drives a resident UPDATE builder step over step, the way a
// session does: it owns the step counter, repartitions the bodies after
// every step so the assignment tracks the moving distribution, times each
// step for its rebuildRule, and converts the rule's verdict into an
// Input.Rebuild on the following step.
// This is the step-over-step surface internal/engine leases pin;
// internal/nbody keeps its own loop because it also owns integration and
// costzones repartitioning.
//
// The stepper keeps its bodies resident in Morton order (see resort), so
// the passes of a step — bounds, repair scan, moments, the cost cut —
// each stream the body columns front to back instead of chasing
// generator-order indices through them, and a partition is p−1 cut
// positions in that order.
type Stepper struct {
	cfg  Config
	b    Builder
	rule rebuildRule
	// now is the clock the rule's step times are read from, in
	// nanoseconds; tests substitute their own.
	now    func() int64
	sorter partition.Sorter
	bodies *phys.Bodies
	// index is the identity 0..n-1. Storage order is the spatial order,
	// so zone w of the assignment is the range index[cut[w]:cut[w+1]].
	index  []int32
	cut    []int
	assign [][]int32
	step   int
	// pendingRebuild is the rule's verdict from the previous step,
	// consumed (and reset) by the next Step call.
	pendingRebuild bool
}

// NewStepper pins a fresh UPDATE builder over bodies and sorts them, in
// place, into Morton order: bodies stays the object the stepper reads and
// the caller mutates, but its slots are reordered — bodies.ID maps each
// slot back to the index the caller knew the body by. Every step's
// assignment is a cost-balanced cut of that order, recut after each
// build, so the partition follows the costs instead of freezing at step 0.
func NewStepper(cfg Config, bodies *phys.Bodies, _ FallbackPolicy) *Stepper {
	cfg = cfg.Normalized()
	st := &Stepper{
		cfg:    cfg,
		b:      New(UPDATE, cfg),
		now:    func() int64 { return time.Since(clockEpoch).Nanoseconds() },
		bodies: bodies,
		cut:    make([]int, cfg.P+1),
		assign: make([][]int32, cfg.P),
	}
	st.resort()
	st.repartition()
	return st
}

// clockEpoch anchors the steppers' monotonic clock.
var clockEpoch = time.Now()

// resort makes the bodies' Morton order their storage order, sorting in
// the stepper's resident scratch; the spent order becomes the identity the
// zones are ranges of. Slots change meaning, so it may run only where
// nothing slot-keyed survives: at construction, and ahead of a build that
// starts from scratch (which rewrites the builder's body→leaf map). The
// cuts are positions, not bodies, so they — and the zones — survive it.
func (st *Stepper) resort() {
	b := st.bodies
	order := st.sorter.Order(b.Pos, b.Bounds(vec.RootMargin))
	b.Permute(order)
	for i := range order {
		order[i] = int32(i)
	}
	st.index = order
	st.render()
}

// render makes the assignment the cuts: zone w is the capped sub-slice
// index[cut[w]:cut[w+1]].
func (st *Stepper) render() {
	for w := range st.assign {
		lo, hi := st.cut[w], st.cut[w+1]
		st.assign[w] = st.index[lo:hi:hi]
	}
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

// Assign returns the body assignment the next Step will build with. The
// returned slices are the stepper's own: read-only for callers.
func (st *Stepper) Assign() [][]int32 { return st.assign }

// Step builds (or repairs) the tree for the current body state and
// advances the step counter.
func (st *Stepper) Step(in StepInput) *StepResult {
	t0 := st.now()
	fallback := st.pendingRebuild && !in.Rebuild
	st.pendingRebuild = false
	rebuild := in.Rebuild || fallback
	if rebuild {
		// The bodies have drifted since the last sort — far, if the
		// rule gave up on repair — and this build starts from scratch
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
	st.repartition()
	st.pendingRebuild = st.rule.observe(st.now()-t0, m.FreshRebuild)
	st.step++
	return res
}

// repartition recuts the body assignment for the next step — the
// staleness fix: before it, the step-0 partition (and its costs) served
// every subsequent step unchanged. It cuts the modeled costs along the
// resident order, as the paper's costzones does: the zones are p ranges
// of the index, no tree walk, nothing allocated.
func (st *Stepper) repartition() {
	partition.CostRanges(st.bodies.Cost, st.cut)
	st.render()
}
