package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/nbody"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/verify"
)

// The application surface: nbody.Simulation.Step with the SPACE builder,
// the paper's whole-application view, where the force phase is nearly all
// of the step. End-to-end numbers come from Simulation.Step at pmax. The
// traced pass adds a p=1 simulation stepped alternately (the speedup
// denominator) and a third body set driven through the same phases
// unrolled — Build, Costzones, ComputeAll, update — so each layer has its
// own span.

// relErrSamples is how many bodies the force accuracy check compares
// against force.Direct.
const relErrSamples = 64

// maxRelErr is the median relative force error the check tolerates. The
// walk at θ = 1 without quadrupoles measures 1.5–4.5 % across the five
// mass models (the thin disk is the worst), so this catches a broken
// force pass, not a percent of drift; force.rel_err_p50 reports the value.
const maxRelErr = 0.10

// checkingBuilder lends a simulation its builder and, when armed,
// verifies the tree of the next build against the bodies it was built
// from — the only moment they still match, since the step's update phase
// moves the bodies afterwards. An armed step is never a timing sample.
type checkingBuilder struct {
	core.Builder
	armed   bool
	checked int
	err     error
}

func (c *checkingBuilder) Build(in *core.Input) (*octree.Tree, *core.Metrics) {
	t, m := c.Builder.Build(in)
	if c.armed {
		c.armed = false
		c.checked++
		if err := verify.Build(c.Algorithm(), t, m, in.Bodies, in.Step); err != nil && c.err == nil {
			c.err = err
		}
	}
	return t, m
}

type appSection struct {
	all    bool
	k      *track
	n      int
	params force.Params

	sim  *nbody.Simulation // pmax, stepped through Simulation.Step
	chk  *checkingBuilder
	sim1 *nbody.Simulation // p=1
	un   *unrolledSim      // traced pass only

	wall, tree, part, force, update, share, unaccounted []float64
	wall1, part1, force1, nsPerInter                    []float64
	interPerBody, visitedPerBody                        []float64
	cyc                                                 []int // per step: the cycle it ran in
	steps                                               int
	failed                                              []string
}

// appDt is the simulations' time step. It is a fortieth of the BARNES
// default so that the system a run measures is the one its seed generated
// however many steps the host manages: at the default, a uniform cube
// collapses and two clusters fall together within a run, and step_ms
// follows the clustering (it moved 40% between runs) instead of the code.
const appDt = 0.025 / 40

func appOptions(w workload, p int) nbody.Options {
	o := nbody.DefaultOptions()
	o.Model, o.N, o.P, o.Alg, o.Dt = w.model, w.appN, p, core.SPACE, appDt
	return o
}

// newAppSection generates the bodies and prepares the simulations; every
// simulation starts from its own clone of the same body set.
func newAppSection(w workload, seed int64, pmax int, all bool, k *track) *appSection {
	s := &appSection{all: all, k: k, n: w.appN, params: force.DefaultParams()}
	sp := k.begin("phys.Generate")
	bodies := phys.Generate(w.model, w.appN, seed)
	k.end(sp)

	o := appOptions(w, pmax)
	s.chk = &checkingBuilder{Builder: core.New(core.SPACE, core.Config{P: pmax, LeafCap: o.LeafCap})}
	o.Builder = s.chk
	sp = k.begin("phys.Clone")
	s.sim = nbody.NewFromBodies(o, bodies.Clone())
	k.end(sp)
	s.sim1 = nbody.NewFromBodies(appOptions(w, 1), bodies.Clone())
	if all {
		s.un = newUnrolledSim(bodies.Clone(), pmax, o.LeafCap, o.Dt, s.params)
	}
	return s
}

// warmUp runs two unmeasured steps of every simulation; the first one's
// tree is verified.
func (s *appSection) warmUp() {
	s.chk.armed = true
	for i := 0; i < 2; i++ {
		s.sim.Step()
		s.sim1.Step()
		if s.all {
			s.un.step(nil, nil)
		}
	}
}

// step advances every simulation once and records the timings.
func (s *appSection) step() {
	s.k.setOp(int64(s.steps))
	sp := s.k.begin("nbody.Step pmax")
	t0 := time.Now()
	st := s.sim.Step()
	wall := time.Since(t0)
	s.k.end(sp)
	s.steps++
	s.wall = append(s.wall, ms(wall))
	s.tree = append(s.tree, ms(st.TreeBuild))
	s.part = append(s.part, ms(st.Partition))
	s.force = append(s.force, ms(st.Force))
	s.update = append(s.update, ms(st.Update))
	s.share = append(s.share, st.TreeShare())
	s.unaccounted = append(s.unaccounted, ms(wall-st.Total()))

	sp = s.k.begin("nbody.Step p1")
	t0 = time.Now()
	st1 := s.sim1.Step()
	s.wall1 = append(s.wall1, ms(time.Since(t0)))
	s.k.end(sp)
	s.part1 = append(s.part1, ms(st1.Partition))
	s.force1 = append(s.force1, ms(st1.Force))
	if st1.Phase.Interactions > 0 {
		s.nsPerInter = append(s.nsPerInter, float64(st1.Force.Nanoseconds())/float64(st1.Phase.Interactions))
	}
	s.interPerBody = append(s.interPerBody, float64(st1.Phase.Interactions)/float64(s.n))
	s.visitedPerBody = append(s.visitedPerBody, float64(st1.Phase.NodesVisited)/float64(s.n))
	if !s.all {
		return
	}
	s.un.step(s.k, &s.failed)
}

// endCycle stamps the steps taken since the last call with the cycle
// they ran in.
func (s *appSection) endCycle(c int) {
	for len(s.cyc) < len(s.wall) {
		s.cyc = append(s.cyc, c)
	}
}

// finish runs one more verified, untimed step and collects the check
// outcome; it returns the number of trees verified.
func (s *appSection) finish() int {
	s.chk.armed = true
	s.sim.Step()
	if s.chk.err != nil {
		s.failed = append(s.failed, fmt.Sprintf("app step verification: %v", s.chk.err))
	}
	return s.chk.checked
}

func (s *appSection) report(m metrics, yard []float64) {
	m.set("nbody.step_speedup", ratioMedian(s.wall1, s.wall))
	m.set("step_ms", median(s.wall))
	if !s.all {
		return
	}
	m.set("step_rel", ratioMedian(s.wall, pick(yard, s.cyc)))
	m.set("nbody.tree_ms", median(s.tree))
	m.set("nbody.partition_ms", median(s.part))
	m.set("nbody.force_ms", median(s.force))
	m.set("nbody.update_ms", median(s.update))
	m.set("nbody.tree_share", median(s.share))
	m.set("nbody.unaccounted_ms", median(s.unaccounted))
	m.set("nbody.p1_step_ms", median(s.wall1))

	m.set("partition.costzones_ms", median(s.un.costzones))
	m.set("partition.p1_costzones_ms", median(s.part1))
	m.set("partition.imbalance", median(s.un.imbalance))

	m.set("force.pass_ms", median(s.un.pass))
	m.set("force.p1_pass_ms", median(s.force1))
	m.set("force.speedup", ratioMedian(s.force1, s.un.pass))
	m.set("force.ns_per_interaction", median(s.nsPerInter))
	m.set("force.interactions_per_body", median(s.interPerBody))
	m.set("force.nodes_visited_per_body", median(s.visitedPerBody))
	m.set("force.rel_err_p50", median(s.un.relErr))
}

// identity renders the step accounting identity.
func (s *appSection) identity() string {
	parts := median(s.tree) + median(s.part) + median(s.force) + median(s.update) + median(s.unaccounted)
	return identityLine("step_ms = nbody.tree + partition + force + update + unaccounted", median(s.wall), parts)
}

// unrolledSim is Simulation.Step written out in the benchmark, phase by
// phase, so each call into a layer can carry its own span and be timed
// on its own. It owns its bodies and builder.
type unrolledSim struct {
	bodies *phys.Bodies
	b      core.Builder
	assign [][]int32
	p      int
	dt     float64
	params force.Params
	n      int

	costzones, pass, imbalance, relErr []float64
}

func newUnrolledSim(b *phys.Bodies, p, leafCap int, dt float64, params force.Params) *unrolledSim {
	return &unrolledSim{bodies: b, p: p, dt: dt, params: params,
		b:      core.New(core.SPACE, core.Config{P: p, LeafCap: leafCap}),
		assign: core.EvenAssign(b.N(), p)}
}

// step runs one time step. With a nil failed list (warm-up) nothing is
// recorded.
func (u *unrolledSim) step(k *track, failed *[]string) {
	record := failed != nil
	root := k.begin("unrolled step")
	sp := k.begin("core.Build")
	tree, _ := u.b.Build(&core.Input{Bodies: u.bodies, Assign: u.assign, Step: u.n})
	k.end(sp)

	d := octree.BodyData{Pos: u.bodies.Pos, Mass: u.bodies.Mass, Cost: u.bodies.Cost}
	sp = k.begin("partition.Costzones")
	t0 := time.Now()
	assign := partition.Costzones(tree, d, u.p)
	cz := time.Since(t0)
	k.end(sp)

	sp = k.begin("force.ComputeAll")
	t0 = time.Now()
	ps := force.ComputeAll(tree, u.bodies, assign, u.params)
	pass := time.Since(t0)
	k.end(sp)
	k.count("force.interactions", float64(ps.Interactions))

	if record {
		u.costzones = append(u.costzones, ms(cz))
		u.pass = append(u.pass, ms(pass))
		// Cost now holds what this pass really charged each body, so this
		// is the load imbalance the force phase just ran with.
		u.imbalance = append(u.imbalance, partition.Imbalance(assign, d))
		if len(u.relErr) == 0 {
			if err := partition.Validate(assign, u.bodies.N()); err != nil {
				*failed = append(*failed, fmt.Sprintf("costzones cover: %v", err))
			}
			u.relErr = append(u.relErr, u.forceError(d))
			if e := u.relErr[0]; e > maxRelErr {
				*failed = append(*failed, fmt.Sprintf("force.rel_err_p50 = %.4f exceeds %.2f", e, maxRelErr))
			}
		}
	}

	sp = k.begin("nbody.update")
	var wg sync.WaitGroup
	for w := 0; w < u.p; w++ {
		wg.Add(1)
		go func(zone []int32) {
			defer wg.Done()
			for _, b := range zone {
				u.bodies.Vel[b] = u.bodies.Vel[b].MulAdd(u.dt, u.bodies.Acc[b])
				u.bodies.Pos[b] = u.bodies.Pos[b].MulAdd(u.dt, u.bodies.Vel[b])
			}
		}(assign[w])
	}
	wg.Wait()
	k.end(sp)
	k.end(root)
	u.assign = assign
	u.n++
}

// forceError is the median relative error of the tree force against the
// direct O(N²) sum over a fixed sample of bodies.
func (u *unrolledSim) forceError(d octree.BodyData) float64 {
	r := rand.New(rand.NewSource(int64(u.bodies.N())))
	errs := make([]float64, 0, relErrSamples)
	for i := 0; i < relErrSamples; i++ {
		b := int32(r.Intn(u.bodies.N()))
		want := force.Direct(d, b, u.params)
		if l := want.Len(); l > 0 {
			errs = append(errs, u.bodies.Acc[b].Sub(want).Len()/l)
		}
	}
	return median(errs)
}
