package verify

import (
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
)

// BenchmarkVerifyBuild times one -check of a pristine canonical build:
// the invariants, the moments recomputation and the serial reference
// compared node for node. tiny is a 64-body ORIG tree, where building
// the reference store dominates; serve-build is the benchmark's one-shot
// /v1/build (uniform n = 20 000, LOCAL, p = 1, spatial assignment).
//
//	go test ./internal/verify -run '^$' -bench VerifyBuild -benchmem
func BenchmarkVerifyBuild(b *testing.B) {
	for _, c := range []struct {
		name    string
		alg     core.Algorithm
		model   phys.Model
		n       int
		spatial bool
	}{
		{"tiny-orig-64", core.ORIG, phys.ModelPlummer, 64, false},
		{"serve-build-uniform-20k", core.LOCAL, phys.ModelUniform, 20000, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			bodies := phys.Generate(c.model, c.n, 1998)
			in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(c.n, 1)}
			if c.spatial {
				in.Assign = core.SpatialAssign(bodies, 1)
			}
			tree, m := core.New(c.alg, core.Config{P: 1, LeafCap: 8}).Build(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Build(c.alg, tree, m, bodies, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
