package partition

import (
	"fmt"
	"testing"

	"partree/internal/octree"
	"partree/internal/phys"
)

func BenchmarkCostzones(b *testing.B) {
	for _, n := range []int{16384, 131072} {
		bodies := phys.Generate(phys.ModelPlummer, n, 1)
		tr := octree.BuildSerial(bodies.Pos, 8)
		d := octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}
		octree.ComputeMomentsSerial(tr, d)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Costzones(tr, d, 16)
			}
		})
	}
}

var keySink uint64

func BenchmarkKeyerKey(b *testing.B) {
	bodies := phys.Generate(phys.ModelUniform, 4096, 1)
	k := NewKeyer(bodies.Bounds(1e-4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink ^= k.Key(bodies.Pos[i&4095])
	}
}

var orderSink []int32

func BenchmarkOrder(b *testing.B) {
	for _, model := range []phys.Model{phys.ModelUniform, phys.ModelPlummer} {
		for _, n := range []int{20000, 200000} {
			bodies := phys.Generate(model, n, 1)
			domain := bodies.Bounds(1e-4)
			b.Run(fmt.Sprintf("%s/n=%d", model, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					orderSink = Order(bodies.Pos, domain)
				}
			})
		}
	}
}
