package force

import (
	"fmt"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
)

func benchTree(n int) (*phys.Bodies, *octree.Tree, octree.BodyData) {
	b := phys.Generate(phys.ModelPlummer, n, 1)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	return b, tr, d
}

// BenchmarkAccel times the force walk, one body per op over a Plummer
// tree of 65 536 bodies, and reports the mean interactions per body and
// ns per interaction, both summed over every body walked.
func BenchmarkAccel(b *testing.B) {
	_, tr, d := benchTree(65536)
	p := DefaultParams()
	var inter int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inter += Accel(tr, d, int32(i%65536), p).Interactions
	}
	b.ReportMetric(float64(inter)/float64(b.N), "interactions/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inter), "ns/interaction")
}

func BenchmarkComputeAll(b *testing.B) {
	bodies, tr, _ := benchTree(32768)
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			assign := core.EvenAssign(bodies.N(), p)
			for i := 0; i < b.N; i++ {
				ComputeAll(tr, bodies, assign, DefaultParams())
			}
		})
	}
}
