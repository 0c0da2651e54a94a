package core

import (
	"fmt"
	"testing"

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
