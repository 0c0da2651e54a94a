package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/verify"
)

// The library surface: persistent, warm builders (what engine sessions
// give real requests) building one shared body set. Configurations are
// interleaved round-robin — one build of each per round, bodies moved
// once per round — never block by block, so a co-tenant burst on a
// shared host spreads over all configurations and the median over the
// rounds ignores it, and a speedup is a ratio of two builds of the same
// round.

// driftDt moves the bodies between rounds. It alternates sign, so the
// body set swings between two states instead of expanding without
// forces: every round sees the same tree shape, and UPDATE the same
// churn, however many rounds the host manages in the measured time.
const driftDt = 0.01

// maxProbes bounds how many rounds of the traced pass also run the
// direct layer probes (moments, stats, assignment, generation).
const maxProbes = 5

// treeKey names one measured configuration.
type treeKey struct {
	alg    core.Algorithm
	p1     bool // one processor; otherwise pmax
	traced bool // built with an enabled trace.Recorder
}

func (k treeKey) String() string {
	s := strings.ToLower(k.alg.String())
	if k.p1 {
		s += "/p1"
	} else {
		s += "/pmax"
	}
	if k.traced {
		s += "/traced"
	}
	return s
}

type treeConfig struct {
	key treeKey
	b   core.Builder
	in  core.Input

	tree *octree.Tree // last build, owned by b until its next Build
	m    *core.Metrics

	wall, bounds, insert, moments, unaccounted []float64 // ms
	locks, moved, allocKB                      []float64
	barrier, skew                              []float64 // traced configuration only
}

type treeSection struct {
	model  phys.Model
	pmax   int
	all    bool // traced pass: every configuration plus the layer probes
	k      *track
	bodies *phys.Bodies
	order  []*treeConfig
	cfgs   map[treeKey]*treeConfig
	rounds int
	builds int
	cyc    []int // per measured round: the cycle it ran in
	failed []string

	gen, clone, drift, assign, mortonNs  []float64
	momSerial, momParallel, collect, vfy []float64
	stats                                octree.Stats
	probes                               int
}

// newTreeSection generates the bodies and creates one persistent builder
// per configuration. The untraced pass builds what the end-to-end metrics
// need — PARTREE and SPACE at pmax and at p=1, and SPACE at pmax with an
// enabled trace.Recorder. The traced pass adds ORIG and LOCAL at pmax and
// at p=1 and UPDATE at p=1.
//
// UPDATE runs at p=1 only. Its repair phase has a data race at p >= 2:
// inserter.subdivide fills the replacement leaves and publishes them in
// bodyLeaf while holding only the old leaf's lock, so another processor's
// inserter.remove can lock a new leaf and scan it while it is still being
// appended to, and panics "bodyLeaf map out of sync with leaf contents".
// Calibrating this benchmark hit it once in about 20 000 UPDATE builds at
// p=2 (Plummer n=50 000), which is once in some sixty runs: a
// configuration on which an operation fails cannot be a workload. When
// internal/core fixes it, UPDATE moves to pmax here.
func newTreeSection(w workload, seed int64, pmax int, all bool, k *track) *treeSection {
	s := &treeSection{model: w.model, pmax: pmax, all: all, k: k, cfgs: map[treeKey]*treeConfig{}}
	sp := k.begin("phys.Generate")
	t0 := time.Now()
	s.bodies = phys.Generate(w.model, w.treeN, seed)
	s.gen = append(s.gen, ms(time.Since(t0)))
	k.end(sp)

	sp = k.begin("core.SpatialAssign")
	t0 = time.Now()
	assignMax := core.SpatialAssign(s.bodies, pmax)
	s.assign = append(s.assign, ms(time.Since(t0)))
	k.end(sp)
	assign1 := core.SpatialAssign(s.bodies, 1)

	add := func(key treeKey) {
		p, assign := pmax, assignMax
		if key.p1 {
			p, assign = 1, assign1
		}
		cfg := core.Config{P: p, LeafCap: 8}
		if key.traced {
			cfg.Trace = trace.New(p)
			cfg.Trace.SetEnabled(true)
		}
		c := &treeConfig{key: key, b: core.New(key.alg, cfg),
			in: core.Input{Bodies: s.bodies, Assign: assign}}
		s.cfgs[key] = c
		s.order = append(s.order, c)
	}
	for _, alg := range core.Algorithms() {
		if !all && alg != core.PARTREE && alg != core.SPACE {
			continue
		}
		if alg != core.UPDATE {
			add(treeKey{alg: alg})
		}
		add(treeKey{alg: alg, p1: true})
	}
	add(treeKey{alg: core.SPACE, traced: true})
	return s
}

// warmUp runs the two unmeasured rounds every builder gets before the
// clock starts, so stores are allocated and UPDATE holds a resident tree.
func (s *treeSection) warmUp() {
	s.round(false)
	s.round(false)
}

// round moves the bodies once and builds every configuration once,
// starting from a different configuration each round so no one of them
// always runs on the caches its predecessor left behind.
func (s *treeSection) round(measure bool) {
	dt := driftDt
	if s.rounds%2 == 1 {
		dt = -driftDt
	}
	sp := s.k.begin("phys.Drift")
	t0 := time.Now()
	s.bodies.Drift(0, s.bodies.N(), dt)
	if measure {
		s.drift = append(s.drift, ms(time.Since(t0)))
	}
	s.k.end(sp)

	n := len(s.order)
	for i := 0; i < n; i++ {
		c := s.order[(i+s.rounds)%n]
		var before runtime.MemStats
		if s.all && measure {
			runtime.ReadMemStats(&before)
		}
		sp := s.k.begin("core.Build " + c.key.String())
		t0 := time.Now()
		tree, m := c.b.Build(&c.in)
		wall := time.Since(t0)
		s.k.end(sp)
		s.k.count("core.locks "+c.key.String(), float64(m.TotalLocks()))
		c.tree, c.m = tree, m
		c.in.Step++
		s.builds++
		if c.key.alg == core.UPDATE && c.in.Step > 1 && m.FreshRebuild {
			s.fail("UPDATE %s rebuilt from scratch at step %d: %s", c.key, c.in.Step-1, m.FreshReason)
		}
		if !measure {
			continue
		}
		c.wall = append(c.wall, ms(wall))
		c.bounds = append(c.bounds, ms(m.Timing.Bounds))
		c.insert = append(c.insert, ms(m.Timing.Insert))
		c.moments = append(c.moments, ms(m.Timing.Moments))
		c.unaccounted = append(c.unaccounted, ms(wall-m.Timing.Total()))
		c.locks = append(c.locks, float64(m.TotalLocks()))
		c.moved = append(c.moved, float64(m.TotalBodiesMoved())/float64(s.bodies.N()))
		if s.all {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			c.allocKB = append(c.allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024)
		}
		if c.key.traced && m.Trace != nil {
			totals := m.Trace.PhaseTotals()
			c.barrier = append(c.barrier, float64(totals[trace.PhaseBarrier])/1e6/float64(len(m.Trace.PerProc)))
			c.skew = append(c.skew, m.Trace.ImbalanceRatio())
		}
	}
	s.rounds++
	if s.all && measure && s.probes < maxProbes {
		s.probe()
	}
}

// endCycle stamps the rounds measured since the last call with the
// cycle they ran in.
func (s *treeSection) endCycle(c int) {
	for len(s.cyc) < len(s.order[0].wall) {
		s.cyc = append(s.cyc, c)
	}
}

func (s *treeSection) fail(format string, args ...any) {
	s.failed = append(s.failed, fmt.Sprintf(format, args...))
}

// verifyAll checks every configuration's latest tree against the serial
// reference and the metrics conservation laws. It runs between rounds,
// outside every timed region, and returns the number of trees checked.
func (s *treeSection) verifyAll() int {
	for _, c := range s.order {
		sp := s.k.begin("verify.Build")
		t0 := time.Now()
		err := verify.Build(c.key.alg, c.tree, c.m, s.bodies, c.in.Step-1)
		if c.key == (treeKey{alg: core.SPACE}) {
			s.vfy = append(s.vfy, ms(time.Since(t0)))
		}
		s.k.end(sp)
		if err != nil {
			s.fail("verify %s: %v", c.key, err)
		}
	}
	return len(s.order)
}

// probe times direct calls into octree, partition and phys on the SPACE
// tree of the round just built. Recomputing moments on a built tree
// overwrites them with the same values, so the tree stays valid for the
// closing verification.
func (s *treeSection) probe() {
	s.probes++
	c := s.cfgs[treeKey{alg: core.SPACE}]
	d := octree.BodyData{Pos: s.bodies.Pos, Mass: s.bodies.Mass, Cost: s.bodies.Cost}
	timed := func(name string, dst *[]float64, fn func()) {
		sp := s.k.begin(name)
		t0 := time.Now()
		fn()
		*dst = append(*dst, ms(time.Since(t0)))
		s.k.end(sp)
	}
	timed("octree.ComputeMomentsSerial", &s.momSerial, func() { octree.ComputeMomentsSerial(c.tree, d) })
	timed("octree.ComputeMomentsParallel", &s.momParallel, func() { octree.ComputeMomentsParallel(c.tree, d, s.pmax) })
	timed("octree.CollectStats", &s.collect, func() { s.stats = octree.CollectStats(c.tree) })
	timed("core.SpatialAssign", &s.assign, func() { core.SpatialAssign(s.bodies, s.pmax) })
	timed("phys.Clone", &s.clone, func() { s.bodies.Clone() })
	timed("phys.Generate", &s.gen, func() { phys.Generate(s.model, s.bodies.N(), int64(s.probes)) })

	cube := s.bodies.Bounds(1e-4)
	var sink uint64
	t0 := time.Now()
	for i := range s.bodies.Pos {
		sink ^= partition.MortonKey(cube, s.bodies.Pos[i])
	}
	s.mortonNs = append(s.mortonNs, float64(time.Since(t0).Nanoseconds())/float64(s.bodies.N()))
	mortonSink = sink
}

// mortonSink keeps the key loop from being optimised away.
var mortonSink uint64

// report writes the section's metrics: the end-to-end names always, the
// per-layer names when the traced pass measured them. yard is the
// yardstick of each cycle.
func (s *treeSection) report(m metrics, yard []float64) {
	wall := func(key treeKey) []float64 { return s.cfgs[key].wall }
	space, traced := s.cfgs[treeKey{alg: core.SPACE}], s.cfgs[treeKey{alg: core.SPACE, traced: true}]
	m.set("space_speedup", ratioMedian(wall(treeKey{alg: core.SPACE, p1: true}), space.wall))
	m.set("partree_speedup", ratioMedian(wall(treeKey{alg: core.PARTREE, p1: true}), wall(treeKey{alg: core.PARTREE})))
	m.set("trace.space_overhead_ratio", ratioMedian(traced.wall, space.wall))
	m.set("space_build_ms", median(space.wall))
	if !s.all {
		return
	}

	for _, alg := range core.Algorithms() {
		m.set(strings.ToLower(alg.String())+"_build_ms", median(wall(treeKey{alg: alg, p1: alg == core.UPDATE})))
	}
	m.set("space_traced_build_ms", median(traced.wall))
	m.set("space_build_rel", ratioMedian(space.wall, pick(yard, s.cyc)))

	for _, alg := range core.Algorithms() {
		name := "core." + strings.ToLower(alg.String())
		p1 := s.cfgs[treeKey{alg: alg, p1: true}]
		m.set(name+".p1_bounds_ms", median(p1.bounds))
		m.set(name+".p1_insert_ms", median(p1.insert))
		m.set(name+".p1_moments_ms", median(p1.moments))
		pm := s.cfgs[treeKey{alg: alg}]
		if pm == nil {
			pm = p1 // UPDATE: its one configuration supplies the counts
		} else {
			m.set(name+".p1_build_ms", median(p1.wall))
			m.set(name+".bounds_ms", median(pm.bounds))
			m.set(name+".insert_ms", median(pm.insert))
			m.set(name+".moments_ms", median(pm.moments))
		}
		m.set(name+".locks", median(pm.locks))
		m.set(name+".alloc_kb", median(pm.allocKB))
		if alg == core.ORIG || alg == core.LOCAL {
			m.set(name+".speedup", ratioMedian(p1.wall, pm.wall))
		}
	}
	m.set("core.update.moved_frac", median(s.cfgs[treeKey{alg: core.UPDATE, p1: true}].moved))
	m.set("core.space.unaccounted_ms", median(space.unaccounted))
	m.set("core.space.build_ms_p75", percentile(space.wall, 75))

	m.set("trace.space_barrier_ms", median(traced.barrier))
	m.set("trace.space_insert_skew", median(traced.skew))

	m.set("octree.moments_serial_ms", median(s.momSerial))
	m.set("octree.moments_parallel_ms", median(s.momParallel))
	m.set("octree.collect_stats_ms", median(s.collect))
	m.set("octree.cells", float64(s.stats.Cells))
	m.set("octree.leaves", float64(s.stats.Leaves))
	m.set("octree.max_depth", float64(s.stats.MaxDepth))

	m.set("phys.gen_ms", median(s.gen))
	m.set("phys.clone_ms", median(s.clone))
	m.set("phys.drift_ms", median(s.drift))
	m.set("partition.spatial_assign_ms", median(s.assign))
	m.set("partition.morton_key_ns", median(s.mortonNs))
	m.set("verify.build_check_ms", median(s.vfy))
}

// identity renders the SPACE accounting identity: the phases the builder
// reports plus the remainder the benchmark measured around them add up
// to the build's wall time. Per build it holds exactly; the line shows
// how far the medians of the parts are from the median of the whole.
func (s *treeSection) identity() string {
	c := s.cfgs[treeKey{alg: core.SPACE}]
	parts := median(c.bounds) + median(c.insert) + median(c.moments) + median(c.unaccounted)
	return identityLine("space_build_ms = bounds + insert + moments + core.space.unaccounted_ms",
		median(c.wall), parts)
}
