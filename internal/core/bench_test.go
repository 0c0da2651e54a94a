package core

import (
	"fmt"
	"testing"

	"partree/internal/octree"
	"partree/internal/phys"
)

var assignSink [][]int32

// BenchmarkSpatialAssign times the ordering a spatial:true request pays
// before its build: bounds, partition.Order, cut.
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

// BenchmarkSpacePartition times SPACE's counting partition alone — the
// rounds of count, decide, scatter over a resident scratch — at the two
// tree workloads' shapes, on the spatial assignment every caller passes.
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
				root := parallelBounds(in, nil)
				s := octree.NewStore(p, 8)
				m := newMetrics(SPACE, p)
				var sc spaceScratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Reset()
					spacePartition(&sc, s, octree.NewTree(s, 0, 0, root), in, SpaceThreshold(0, 8, c.n, p), m, nil)
				}
			})
		}
	}
}
