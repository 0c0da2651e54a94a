package octree

import (
	"fmt"
	"testing"

	"partree/internal/phys"
	"partree/internal/vec"
)

func BenchmarkBuildSerial(b *testing.B) {
	for _, n := range []int{1024, 16384, 131072} {
		bodies := phys.Generate(phys.ModelPlummer, n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BuildSerial(bodies.Pos, 8)
			}
		})
	}
}

func BenchmarkBuildSerialReused(b *testing.B) {
	bodies := phys.Generate(phys.ModelPlummer, 16384, 1)
	s := NewStore(1, 8)
	cube := bodies.Bounds(vec.RootMargin)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		BuildSerialInto(s, cube, bodies.Pos)
	}
}

// BenchmarkMoments times the moments pass alone, serial and parallel, on
// a Plummer tree and on the trees of the benchmark's small workloads:
// uniform n = 20 000 (serve-build) and hierarchical n = 10 000
// (tree-small), where the pass is under a millisecond.
func BenchmarkMoments(b *testing.B) {
	for _, c := range []struct {
		name  string
		model phys.Model
		n     int
	}{
		{"plummer-64k", phys.ModelPlummer, 65536},
		{"uniform-20k", phys.ModelUniform, 20000},
		{"hierarchical-10k", phys.ModelHierarchical, 10000},
	} {
		bodies := phys.Generate(c.model, c.n, 1)
		tr := BuildSerial(bodies.Pos, 8)
		d := BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}
		b.Run(c.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ComputeMomentsSerial(tr, d)
			}
		})
		for _, w := range []int{2, 8} {
			b.Run(fmt.Sprintf("%s/parallel-%d", c.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ComputeMomentsParallel(tr, d, w)
				}
			})
		}
	}
}

func BenchmarkWalk(b *testing.B) {
	bodies := phys.Generate(phys.ModelPlummer, 65536, 1)
	tr := BuildSerial(bodies.Pos, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		Walk(tr, func(Ref, int) bool { n++; return true })
	}
}
