// Package nbody is the whole-application driver: it strings the three
// phases of a Barnes-Hut time step — tree build, force calculation,
// update — together around a pluggable tree-building algorithm, with
// per-phase timing. It is the native-execution counterpart of the paper's
// "entire application" measurements; the platform simulator replays the
// same structure under modelled memory systems.
package nbody

import (
	"fmt"
	"time"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/verify"
)

// Options configure a simulation.
type Options struct {
	Model phys.Model
	N     int
	Seed  int64

	P       int // processors (goroutines)
	LeafCap int // bodies per leaf (k)
	Alg     core.Algorithm

	Force force.Params
	Dt    float64 // time step

	// Check runs the full differential verification (internal/verify) on
	// every freshly built tree — structural invariants, node-for-node
	// equality with the serial reference for rebuilding steps, and the
	// metrics conservation laws — reporting the first violation in
	// StepStats.CheckErr. Check time is excluded from every measured
	// phase.
	Check bool

	// Builder, when non-nil, is used instead of constructing a fresh one
	// — how engine sessions lend their pooled builder (and its warmed
	// store) to a simulation. It must match Alg/P/LeafCap, and the caller
	// keeps ownership: the simulation never frees it.
	Builder core.Builder
}

// DefaultOptions mirror the SPLASH-2 BARNES defaults at a small size. It
// is the one place the time step Δt is written; P and k are core's
// defaults, θ and ε force's.
func DefaultOptions() Options {
	c := core.Config{}.Normalized()
	return Options{
		Model:   phys.ModelPlummer,
		N:       16384,
		Seed:    1,
		P:       c.P,
		LeafCap: c.LeafCap,
		Alg:     core.LOCAL,
		Force:   force.DefaultParams(),
		Dt:      0.025,
	}
}

// StepStats is one step's timing and counters.
type StepStats struct {
	Step      int
	TreeBuild time.Duration
	Partition time.Duration
	Force     time.Duration
	Update    time.Duration
	Build     *core.Metrics
	Phase     force.PhaseStats

	// CheckErr is the first verification violation found when the
	// simulation runs with Options.Check (nil otherwise).
	CheckErr error
}

// Total is the step's wall-clock total.
func (s StepStats) Total() time.Duration {
	return s.TreeBuild + s.Partition + s.Force + s.Update
}

// TreeShare is the fraction of the step spent building the tree — the
// paper's "percentage of time spent in tree building".
func (s StepStats) TreeShare() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.TreeBuild) / float64(t)
}

// String renders the step in one line.
func (s StepStats) String() string {
	return fmt.Sprintf("step %d: tree=%v part=%v force=%v update=%v (tree %.1f%%) inter=%d",
		s.Step, s.TreeBuild, s.Partition, s.Force, s.Update, 100*s.TreeShare(), s.Phase.Interactions)
}

// Simulation is a running N-body system.
type Simulation struct {
	Opts    Options
	Bodies  *phys.Bodies
	Builder core.Builder
	Tree    *octree.Tree

	assign [][]int32
	step   int
}

// New generates the bodies, Morton-sorts them (core.SortBodies) and
// prepares the builder; opts start from DefaultOptions, taken as given.
func New(opts Options) *Simulation {
	c := core.Config{P: opts.P, LeafCap: opts.LeafCap}.Normalized()
	opts.P, opts.LeafCap = c.P, c.LeafCap
	b := phys.Generate(opts.Model, opts.N, opts.Seed)
	core.SortBodies(b, nil)
	return NewFromBodies(opts, b)
}

// NewFromBodies wraps an existing body set (the caller keeps ownership).
func NewFromBodies(opts Options, b *phys.Bodies) *Simulation {
	bld := opts.Builder
	if bld == nil {
		bld = core.New(opts.Alg, core.Config{P: opts.P, LeafCap: opts.LeafCap})
	}
	return &Simulation{
		Opts:    opts,
		Bodies:  b,
		Builder: bld,
		assign:  core.EvenAssign(b.N(), opts.P),
	}
}

// Step advances the system one time step and reports per-phase stats.
// Phase order follows the paper: (1) build the tree from the previous
// step's partition, (2) repartition with costzones and compute forces,
// (3) update positions and velocities.
func (s *Simulation) Step() StepStats {
	st := StepStats{Step: s.step}
	in := &core.Input{Bodies: s.Bodies, Assign: s.assign, Step: s.step}

	t0 := time.Now()
	tree, m := s.Builder.Build(in)
	t1 := time.Now()
	s.Tree = tree
	st.Build = m
	st.TreeBuild = t1.Sub(t0)

	d := octree.BodyData{Pos: s.Bodies.Pos, Mass: s.Bodies.Mass, Cost: s.Bodies.Cost}
	if s.Opts.Check {
		st.CheckErr = verify.Build(s.Opts.Alg, tree, m, s.Bodies, s.step)
		// The serial reference build is not part of the step; restart the
		// clock so it is not charged to the partition phase.
		t1 = time.Now()
	}
	assign := partition.Costzones(tree, d, s.Opts.P)
	t2 := time.Now()

	st.Phase = force.ComputeAll(tree, s.Bodies, assign, s.Opts.Force)
	t3 := time.Now()

	// Update phase: symplectic-Euler integration, each processor
	// updating the bodies it computed forces for.
	par.Do(s.Opts.P, func(w int) { s.Bodies.Advance(assign[w], s.Opts.Dt) })
	t4 := time.Now()

	s.assign = assign
	s.step++

	st.Partition = t2.Sub(t1)
	st.Force = t3.Sub(t2)
	st.Update = t4.Sub(t3)
	return st
}

// Run advances the simulation n steps and returns per-step stats.
func (s *Simulation) Run(n int) []StepStats {
	out := make([]StepStats, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, s.Step())
	}
	return out
}

// Energy returns kinetic, exact potential, and total energy (O(N²);
// diagnostics only).
func (s *Simulation) Energy() (ke, pe, total float64) {
	ke = s.Bodies.KineticEnergy()
	pe = s.Bodies.PotentialEnergy(s.Opts.Force.Eps)
	return ke, pe, ke + pe
}
