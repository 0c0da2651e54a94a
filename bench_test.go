// Benchmarks regenerating each of the paper's tables and figures at
// reduced scale, plus native-execution and ablation benchmarks. Metrics
// reported beyond ns/op carry the experiment's headline number (speedup,
// tree-build share, lock counts) so `go test -bench` output documents the
// reproduced shapes directly. `partree paperrepro` runs the same experiments at
// full scale with formatted tables.
package partree_test

import (
	"context"
	"fmt"
	"io"
	"testing"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/harness"
	"partree/internal/memsim"
	"partree/internal/mp"
	"partree/internal/nbody"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/simalg"
)

const (
	benchN = 4096 // bodies per benchmarked run
	benchP = 16   // simulated processors (the paper's common count)
)

func benchBodies(n int) *phys.Bodies { return phys.Generate(phys.ModelPlummer, n, 1998) }

// simCfg is one measured step at the SPLASH-2 k, θ and Δt, which
// simalg.Run takes as given.
func simCfg(pl memsim.Platform, p int) simalg.Config {
	return simalg.Config{Platform: pl, P: p, LeafCap: 8, Theta: 1, Dt: 0.025, MeasuredSteps: 1}
}

func seqCfg(pl memsim.Platform) simalg.Config {
	c := simCfg(pl, 1)
	c.Sequential = true
	return c
}

// runExperiment drives a harness experiment for b.N iterations.
func runExperiment(b *testing.B, id string) {
	e, ok := harness.Find(id)
	if !ok {
		b.Fatalf("experiment %s not found", id)
	}
	opts := harness.Options{Sizes: []int{benchN}, MeasuredSteps: 1}
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(runner.New(0), opts)
		if failed := s.RunExperiment(context.Background(), e, io.Discard); len(failed) != 0 {
			b.Fatalf("%s: %d cells failed, first: %s", id, len(failed), failed[0].FailureMessage())
		}
	}
}

// ---- One benchmark per table and figure ----------------------------------

func BenchmarkTable1SequentialTime(b *testing.B)    { runExperiment(b, "T1") }
func BenchmarkFig6ChallengeSpeedup(b *testing.B)    { runExperiment(b, "F6") }
func BenchmarkFig7ChallengeTreeShare(b *testing.B)  { runExperiment(b, "F7") }
func BenchmarkFig8OriginSpeedup(b *testing.B)       { runExperiment(b, "F8") }
func BenchmarkTable2OriginBarrier(b *testing.B)     { runExperiment(b, "T2") }
func BenchmarkFig9OriginTreeSpeedup(b *testing.B)   { runExperiment(b, "F9") }
func BenchmarkFig10OriginScaling(b *testing.B)      { runExperiment(b, "F10") }
func BenchmarkFig11OriginTreeShare(b *testing.B)    { runExperiment(b, "F11") }
func BenchmarkFig12ParagonSpeedup(b *testing.B)     { runExperiment(b, "F12") }
func BenchmarkFig13TyphoonHLRC(b *testing.B)        { runExperiment(b, "F13") }
func BenchmarkFig14TyphoonTreeSpeedup(b *testing.B) { runExperiment(b, "F14") }
func BenchmarkS15TyphoonFineGrain(b *testing.B)     { runExperiment(b, "S15") }
func BenchmarkFig15LockCounts(b *testing.B)         { runExperiment(b, "F15") }

// ---- Per-algorithm simulated runs (the figures' underlying points) -------

// BenchmarkSimWholeApp reports each algorithm's simulated whole-application
// speedup and tree share on each platform family at the bench scale.
func BenchmarkSimWholeApp(b *testing.B) {
	bodies := benchBodies(benchN)
	platforms := []memsim.Platform{
		memsim.Challenge(),
		memsim.Origin2000(benchP),
		memsim.TyphoonHLRC(),
		memsim.TyphoonSC(),
		memsim.Paragon(),
	}
	for _, pl := range platforms {
		seq := simalg.Run(core.LOCAL, bodies, seqCfg(pl))
		for _, alg := range core.Algorithms() {
			b.Run(fmt.Sprintf("%s/%v", pl.Name, alg), func(b *testing.B) {
				var last simalg.Outcome
				for i := 0; i < b.N; i++ {
					last = simalg.Run(alg, bodies, simCfg(pl, benchP))
				}
				b.ReportMetric(seq.TotalNs()/last.TotalNs(), "speedup")
				b.ReportMetric(100*last.TreeShare(), "tree%")
				b.ReportMetric(float64(last.TotalLocks()), "locks")
			})
		}
	}
}

// ---- Native benchmarks (real goroutines on this machine) -----------------

func BenchmarkNativeTreeBuild(b *testing.B) {
	bodies := benchBodies(65536)
	for _, alg := range core.Algorithms() {
		for _, p := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%v/p=%d", alg, p), func(b *testing.B) {
				bld := core.New(alg, core.Config{P: p, LeafCap: 8})
				in := &core.Input{Bodies: bodies, Assign: core.SpatialAssign(bodies, p)}
				b.ResetTimer()
				var locks int64
				for i := 0; i < b.N; i++ {
					in.Step = i
					_, m := bld.Build(in)
					locks = m.TotalLocks()
				}
				b.ReportMetric(float64(locks), "locks")
			})
		}
	}
}

func BenchmarkNativeStep(b *testing.B) {
	for _, alg := range core.Algorithms() {
		b.Run(alg.String(), func(b *testing.B) {
			opts := nbody.DefaultOptions()
			opts.N = 16384
			opts.P = 8
			opts.Alg = alg
			sim := nbody.New(opts)
			sim.Step() // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step()
			}
		})
	}
}

// BenchmarkMessagePassingStep runs the native ORB+LET message-passing
// baseline (extension X3) and reports its communication volume.
func BenchmarkMessagePassingStep(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			bodies := benchBodies(16384)
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := mp.Step(bodies, mp.Options{P: p, LeafCap: 8, Force: force.DefaultParams(), Dt: 0.025})
				bytes = st.TotalBytes()
			}
			b.ReportMetric(float64(bytes), "commBytes")
		})
	}
}

// ---- Ablations (DESIGN.md §5) --------------------------------------------

// BenchmarkAblationLeafCapacity sweeps k: the paper notes that allowing
// multiple bodies per leaf "essentially eliminated the difference between
// tree-building algorithms" on hardware-coherent machines; k=1 restores it.
func BenchmarkAblationLeafCapacity(b *testing.B) {
	bodies := benchBodies(benchN)
	pl := memsim.Origin2000(benchP)
	for _, k := range []int{1, 4, 8, 16} {
		for _, alg := range []core.Algorithm{core.LOCAL, core.PARTREE} {
			b.Run(fmt.Sprintf("k=%d/%v", k, alg), func(b *testing.B) {
				cfg := simCfg(pl, benchP)
				cfg.LeafCap = k
				var last simalg.Outcome
				for i := 0; i < b.N; i++ {
					last = simalg.Run(alg, bodies, cfg)
				}
				b.ReportMetric(float64(last.TotalLocks()), "locks")
				b.ReportMetric(100*last.TreeShare(), "tree%")
			})
		}
	}
}

// BenchmarkAblationSpaceThreshold sweeps SPACE's subdivision threshold:
// the paper's load-balance versus partitioning-time trade-off.
func BenchmarkAblationSpaceThreshold(b *testing.B) {
	bodies := benchBodies(benchN)
	pl := memsim.TyphoonHLRC()
	for _, th := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("th=%d", th), func(b *testing.B) {
			cfg := simCfg(pl, benchP)
			cfg.SpaceThreshold = th
			var last simalg.Outcome
			for i := 0; i < b.N; i++ {
				last = simalg.Run(core.SPACE, bodies, cfg)
			}
			b.ReportMetric(last.TreeNs/1e6, "treeMs")
		})
	}
}

// BenchmarkAblationTheta sweeps the opening angle, which sets how heavily
// the force phase dominates and therefore how visible tree building is.
func BenchmarkAblationTheta(b *testing.B) {
	bodies := benchBodies(benchN)
	pl := memsim.TyphoonHLRC()
	for _, theta := range []float64{0.5, 0.8, 1.0, 1.5} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			cfg := simCfg(pl, benchP)
			cfg.Theta = theta
			var last simalg.Outcome
			for i := 0; i < b.N; i++ {
				last = simalg.Run(core.LOCAL, bodies, cfg)
			}
			b.ReportMetric(100*last.TreeShare(), "tree%")
		})
	}
}

// BenchmarkAblationGranularity sweeps the SVM page size: larger pages mean
// more false sharing, more diffs, and costlier faults.
func BenchmarkAblationGranularity(b *testing.B) {
	bodies := benchBodies(benchN)
	for _, pageSize := range []int{1024, 4096, 16384} {
		b.Run(fmt.Sprintf("page=%d", pageSize), func(b *testing.B) {
			pl := memsim.TyphoonHLRC()
			pl.PageSize = pageSize
			var last simalg.Outcome
			for i := 0; i < b.N; i++ {
				last = simalg.Run(core.LOCAL, bodies, simCfg(pl, benchP))
			}
			b.ReportMetric(float64(last.Protocol.PageFaults), "faults")
			b.ReportMetric(100*last.TreeShare(), "tree%")
		})
	}
}

// BenchmarkAblationLatency halves/doubles the corrupted-in-scrape message
// latency to show the qualitative results are insensitive (DESIGN.md §4).
func BenchmarkAblationLatency(b *testing.B) {
	bodies := benchBodies(benchN)
	for _, scale := range []float64{0.5, 1, 2} {
		b.Run(fmt.Sprintf("msg=x%.1f", scale), func(b *testing.B) {
			pl := memsim.TyphoonHLRC()
			pl.MsgNs *= scale
			seq := simalg.Run(core.LOCAL, bodies, seqCfg(pl))
			var local, space simalg.Outcome
			for i := 0; i < b.N; i++ {
				local = simalg.Run(core.LOCAL, bodies, simCfg(pl, benchP))
				space = simalg.Run(core.SPACE, bodies, simCfg(pl, benchP))
			}
			b.ReportMetric(seq.TotalNs()/local.TotalNs(), "localSpeedup")
			b.ReportMetric(seq.TotalNs()/space.TotalNs(), "spaceSpeedup")
		})
	}
}
