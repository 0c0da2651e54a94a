package adapt

import (
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
)

// TestControllerDrivesStepper runs the real loop: an adaptive
// core.Stepper with a Controller in the feedback path, real untraced
// builds, real measured times. Asserts the plumbing (every step
// observed and repartitioned, totals advancing, assignments covering)
// rather than timing-dependent balance, which the deterministic skew
// gate owns.
func TestControllerDrivesStepper(t *testing.T) {
	const n, p, steps = 4000, 4, 10
	reps, corr, sess := repartitions.Value(), corrections.Value(), sessions.Value()
	b := phys.Generate(phys.ModelPlummer, n, 41)
	cfg := core.Config{P: p, LeafCap: 8}
	ctrl := NewController(Options{})
	st := core.NewAdaptiveStepper(cfg, b, core.DefaultFallbackPolicy(), ctrl)
	for i := 0; i < steps; i++ {
		if i > 0 {
			b.Drift(0, n, 0.01)
		}
		res := st.Step(core.StepInput{})
		if res.Metrics.Trace != nil {
			t.Fatalf("step %d ran a trace recorder", i)
		}
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(res.Tree, d, octree.CheckOptions{Canonical: res.Fresh, Moments: true, Tol: 1e-9}); err != nil {
			t.Fatalf("step %d invariants: %v", i, err)
		}
		if err := partition.Validate(st.Assign(), n); err != nil {
			t.Fatalf("step %d next assignment: %v", i, err)
		}
	}
	if got := repartitions.Value() - reps; got != steps {
		t.Fatalf("repartitions advanced by %v, want %d", got, steps)
	}
	if got := corrections.Value() - corr; got < steps-1 {
		t.Fatalf("corrections advanced by %v, want >= %d", got, steps-1)
	}
	if sessions.Value() <= sess {
		t.Fatal("sessions total did not advance")
	}
	if skewBefore.get() < 1 {
		t.Fatalf("measured skew %v unpublished or below 1", skewBefore.get())
	}
}
