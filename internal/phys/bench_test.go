package phys

import (
	"fmt"
	"testing"
)

var generateSink *Bodies

// BenchmarkGenerate times what a fresh request pays before any tree is
// built: one whole body set per model, at the cluster workloads' sizes.
func BenchmarkGenerate(b *testing.B) {
	for _, m := range Models() {
		for _, n := range []int{16384, 50000} {
			b.Run(fmt.Sprintf("%s/n=%d", m, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					generateSink = Generate(m, n, int64(i))
				}
			})
		}
	}
}
