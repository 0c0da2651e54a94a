package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
)

var assignSink [][]int32

// BenchmarkSpatialAssign times the ordering the benchmark's tree section
// pays on its generator-order sets before it builds: bounds,
// partition.Order, cut.
func BenchmarkSpatialAssign(b *testing.B) {
	for _, c := range []struct {
		model phys.Model
		n, p  int
	}{{phys.ModelUniform, 20000, 1}, {phys.ModelPlummer, 200000, 2}} {
		bodies := phys.Generate(c.model, c.n, 1)
		b.Run(fmt.Sprintf("n=%d,p=%d", c.n, c.p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				assignSink = SpatialAssign(bodies, c.p)
			}
		})
	}
}

// BenchmarkSortBodies times the ordering a fresh native body set pays
// once, where the runner's memo admits it: SortBodies with a throwaway
// Sorter, as the memo calls it, at serve-build's and tree-large's shapes.
// Beside ns/op it reports SortBodies' two steps apart: the Morton sort
// (bounds and partition.Order) and the permutation of every column.
func BenchmarkSortBodies(b *testing.B) {
	for _, c := range []struct {
		name  string
		model phys.Model
		n     int
	}{{"uniform-20k", phys.ModelUniform, 20000}, {"plummer-200k", phys.ModelPlummer, 200000}} {
		gen := phys.Generate(c.model, c.n, 1)
		b.Run(c.name, func(b *testing.B) {
			var sort, permute time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := gen.Clone()
				b.StartTimer()
				t0 := time.Now()
				order := new(partition.Sorter).Order(w.Pos, w.Bounds(vec.RootMargin))
				t1 := time.Now()
				w.Permute(order)
				sort += t1.Sub(t0)
				permute += time.Since(t1)
			}
			b.ReportMetric(float64(sort.Microseconds())/float64(b.N), "sort-µs/op")
			b.ReportMetric(float64(permute.Microseconds())/float64(b.N), "permute-µs/op")
		})
	}
}

// BenchmarkSpacePartition times SPACE's counting partition alone — the
// rounds of count, decide, scatter over a resident scratch, down to the
// round threshold a build uses — at the two tree workloads' shapes, on
// the spatial assignment every caller passes.
func BenchmarkSpacePartition(b *testing.B) {
	for _, c := range []struct {
		name  string
		model phys.Model
		n     int
	}{{"plummer-200k", phys.ModelPlummer, 200000}, {"hierarchical-10k", phys.ModelHierarchical, 10000}} {
		bodies := phys.Generate(c.model, c.n, 1)
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/p=%d", c.name, p), func(b *testing.B) {
				in := &Input{Bodies: bodies, Assign: SpatialAssign(bodies, p)}
				m := newMetrics(SPACE, p)
				root := parallelBounds(in, m, &phaseScratch{})
				s := octree.NewStore(p, 8)
				var sc spaceScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Reset()
					spacePartition(&sc, s, octree.NewTree(s, 0, 0, root), in, spaceRoundThreshold(8, c.n, p), m)
				}
			})
		}
	}
}

// BenchmarkSpaceBuild times a warm SPACE build end to end at the two tree
// workloads' shapes and serve-build's uniform n = 20 000, on the spatial
// assignment, and reports where it went: the bounds phase (the counting
// partition included), the insert phase (sorting and attaching the
// subtrees) and the moments pass, in µs per build. The -even arms pass
// EvenAssign instead — the bodies in generator order, as the cluster
// shards and verify.Algorithm feed SPACE — and show what the sorts lose
// on input that is not already in Morton order.
func BenchmarkSpaceBuild(b *testing.B) { benchBuilds(b, SPACE) }

// BenchmarkPartreeBuild times a warm PARTREE build at the same shapes and
// arms: its insert phase is every processor's sorted local tree and the
// merge of the local trees.
func BenchmarkPartreeBuild(b *testing.B) { benchBuilds(b, PARTREE) }

func benchBuilds(b *testing.B, alg Algorithm) {
	for _, c := range []struct {
		name  string
		model phys.Model
		n     int
		even  bool // also time the generator-order arms
	}{
		{"plummer-200k", phys.ModelPlummer, 200000, true},
		{"hierarchical-10k", phys.ModelHierarchical, 10000, false},
		{"uniform-20k", phys.ModelUniform, 20000, true},
	} {
		bodies := phys.Generate(c.model, c.n, 1)
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/p=%d", c.name, p), func(b *testing.B) {
				benchBuild(b, alg, bodies, SpatialAssign(bodies, p))
			})
			if c.even {
				b.Run(fmt.Sprintf("%s/p=%d-even", c.name, p), func(b *testing.B) {
					benchBuild(b, alg, bodies, EvenAssign(bodies.N(), p))
				})
			}
		}
	}
}

func benchBuild(b *testing.B, alg Algorithm, bodies *phys.Bodies, assign [][]int32) {
	bld := New(alg, Config{P: len(assign), LeafCap: 8})
	in := &Input{Bodies: bodies, Assign: assign}
	bld.Build(in)
	var ph Timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, m := bld.Build(in)
		ph.Bounds += m.Timing.Bounds
		ph.Insert += m.Timing.Insert
		ph.Moments += m.Timing.Moments
	}
	perBuild := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / float64(b.N)
	}
	b.ReportMetric(perBuild(ph.Bounds), "bounds-µs/build")
	b.ReportMetric(perBuild(ph.Insert), "insert-µs/build")
	b.ReportMetric(perBuild(ph.Moments), "moments-µs/build")
}

// BenchmarkSessionStep times what a /v1/session step costs inside the
// daemon: a resident Stepper (p=1, as a lease holds it) repairing its
// tree after a small drift, alone and beside a second session stepping at
// the same time — two sessions' trees and body columns no longer share a
// cache. Besides ns/op it reports where a step went: the builder's three
// phases and the rest (the rule's clock, the cost cut, the result). The
// served case replays the benchmark's session motion instead.
func BenchmarkSessionStep(b *testing.B) {
	const dt = 0.01
	for _, n := range []int{50000, 100000} {
		for _, sessions := range []int{1, 2} {
			b.Run(fmt.Sprintf("plummer-%dk/sessions=%d", n/1000, sessions), func(b *testing.B) {
				type session struct {
					bodies *phys.Bodies
					st     *Stepper
					phases Timing
					wall   time.Duration
				}
				ss := make([]*session, sessions)
				for i := range ss {
					bodies := phys.Generate(phys.ModelPlummer, n, int64(i+1))
					ss[i] = &session{bodies: bodies, st: NewStepper(Config{P: 1, LeafCap: 8}, bodies, FallbackPolicy{})}
				}
				// The bodies swing between two states, so no step count
				// changes the distribution or decays the tree.
				run := func(s *session, steps int) {
					for k := 0; k < steps; k++ {
						if k%2 == 0 {
							s.bodies.Drift(0, n, dt)
						} else {
							s.bodies.Drift(0, n, -dt)
						}
						t0 := time.Now()
						res := s.st.Step(StepInput{})
						s.wall += time.Since(t0)
						t := res.Metrics.Timing
						s.phases.Bounds += t.Bounds
						s.phases.Insert += t.Insert
						s.phases.Moments += t.Moments
					}
				}
				for _, s := range ss {
					run(s, 2)
					s.phases, s.wall = Timing{}, 0
				}
				b.ReportAllocs()
				b.ResetTimer()
				par.Do(sessions, func(w int) { run(ss[w], b.N) })
				b.StopTimer()
				var ph Timing
				var wall time.Duration
				for _, s := range ss {
					ph.Bounds += s.phases.Bounds
					ph.Insert += s.phases.Insert
					ph.Moments += s.phases.Moments
					wall += s.wall
				}
				perStep := func(d time.Duration) float64 {
					return float64(d.Microseconds()) / float64(b.N*sessions)
				}
				b.ReportMetric(perStep(ph.Bounds), "bounds-µs/step")
				b.ReportMetric(perStep(ph.Insert), "insert-µs/step")
				b.ReportMetric(perStep(ph.Moments), "moments-µs/step")
				b.ReportMetric(perStep(wall-ph.Total()), "rest-µs/step")
			})
		}
	}
	b.Run("plummer-50k/served", benchServedSession)
}

// benchServedSession is one served session per op: the motion the
// benchmark's session clients send — one-way drift at dt = 0.001, a 0.05
// collapse every 200th step — over 1 200 steps at n = 50 000, the motion
// under which a repaired tree decays. It reports µs/step, how often the
// rebuild rule fired and what the steps allocated (not the open).
func benchServedSession(b *testing.B) {
	const n, steps, dt, every, by = 50000, 1200, 0.001, 200, 0.05
	gen := phys.Generate(phys.ModelPlummer, n, 1)
	var wall time.Duration
	var rebuilds int
	var alloc uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		bodies := gen.Clone()
		st := NewStepper(Config{P: 1, LeafCap: 8}, bodies, FallbackPolicy{})
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for k := 0; k < steps; k++ {
			switch {
			case k%every == every-1:
				for j, p := range bodies.Pos {
					bodies.Pos[j] = p.Scale(1 / (1 + by*p.Len()))
				}
			case k > 0:
				bodies.Drift(0, n, dt)
			}
			if st.Step(StepInput{}).Fallback {
				rebuilds++
			}
		}
		wall += time.Since(t0)
		runtime.ReadMemStats(&after)
		alloc += after.TotalAlloc - before.TotalAlloc
	}
	total := float64(b.N * steps)
	b.ReportMetric(float64(wall.Microseconds())/total, "µs/step")
	b.ReportMetric(100*float64(rebuilds)/total, "rebuilds/100steps")
	b.ReportMetric(float64(alloc)/total, "B/step")
}
