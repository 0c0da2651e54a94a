package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/vec"
	"partree/internal/verify"
)

// TestUpdateRepairUnderContention drives a resident UPDATE builder
// through thousands of repair steps in which every body is rehomed, so
// each processor keeps filling and subdividing leaves whose other
// occupants a different processor is about to remove (the body split is
// by index, so every leaf mixes owners). A subdivision that lists a body
// under its new leaf before that leaf is complete lets the remover in
// mid-fill — a -race report, eventually "bodyLeaf map out of sync". The
// step sequence restarts every 16 steps: UPDATE never collapses cells,
// so without a fresh tree the leaves soon stop filling up. Every step is
// verified, so a lost or duplicated body is caught where it happens.
func TestUpdateRepairUnderContention(t *testing.T) {
	steps := 1000
	if testing.Short() {
		steps = 300
	}
	const n, restart = 512, 16
	for _, p := range []int{2, 4} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			b := phys.Generate(phys.ModelUniform, n, 11)
			upd := core.New(core.UPDATE, core.Config{P: p, LeafCap: 8})
			assign := core.EvenAssign(n, p)
			for i := 0; i < steps; i++ {
				step := i % restart
				tree, m := upd.Build(&core.Input{Bodies: b, Assign: assign, Step: step})
				if err := verify.Build(core.UPDATE, tree, m, b, step); err != nil {
					t.Fatalf("build %d: %v", i, err)
				}
				for j := range b.Pos {
					b.Pos[j] = vec.V3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
				}
			}
		})
	}
}
