package core_test

import (
	"slices"
	"testing"

	"partree/internal/core"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
	"partree/internal/verify"
)

// TestSessionResortKeepsCostCut: after steps of drift a session's bodies
// have left Morton order; a Rebuild step must sort them again, build a
// tree verify.Build holds node for node to the serial tree, and leave
// the next step's zones at the cost cut of the re-sorted order — the
// costs travel with their bodies, so the cut is taken over the new
// slots, not the old ones.
func TestSessionResortKeepsCostCut(t *testing.T) {
	const n, p = 3000, 4
	b := phys.Generate(phys.ModelPlummer, n, 13)
	for i, q := range b.Pos {
		// A force pass's costs: the dense core is expensive.
		b.Cost[i] = 1 + int64(64/(0.05+q.Len()))
	}
	st := core.NewStepper(core.Config{P: p, LeafCap: 8}, b, core.FallbackPolicy{})
	core.SteadyClock(st)
	cuts := func() []int {
		out := []int{0}
		for _, zone := range st.Assign() {
			out = append(out, out[len(out)-1]+len(zone))
		}
		return out
	}
	sorted := func() bool {
		k := partition.NewKeyer(b.Bounds(vec.RootMargin))
		for i := 1; i < n; i++ {
			if k.Key(b.Pos[i]) < k.Key(b.Pos[i-1]) {
				return false
			}
		}
		return true
	}
	for i := 0; i < 8; i++ {
		b.Drift(0, n, 0.05)
		if res := st.Step(core.StepInput{}); res.Fresh != (i == 0) {
			t.Fatalf("step %d: fresh=%v reason %q", i, res.Fresh, res.Reason)
		}
	}
	if sorted() {
		t.Fatal("setup: eight drift steps left the bodies in Morton order; the re-sort goes untested")
	}
	ids := slices.Clone(b.ID)
	res := st.Step(core.StepInput{Rebuild: true})
	if !res.Fresh || res.Reason != core.FreshRequested {
		t.Fatalf("rebuild step: fresh=%v reason %q", res.Fresh, res.Reason)
	}
	if !sorted() {
		t.Fatal("a from-scratch step left the session's bodies out of Morton order")
	}
	if slices.Equal(ids, b.ID) {
		t.Fatal("the re-sort moved no body")
	}
	if !verify.Canonical(core.UPDATE, res.Metrics) {
		t.Fatalf("the rebuild at step %d is not held to the serial tree", res.Step)
	}
	if err := verify.Build(core.UPDATE, res.Tree, res.Metrics, b, res.Step); err != nil {
		t.Fatal(err)
	}
	want := make([]int, p+1)
	partition.CostRanges(b.Cost, want)
	if got := cuts(); !slices.Equal(got, want) {
		t.Fatalf("after the re-sort the zones are cut at %v, the costs of the new order at %v", got, want)
	}
	if even := []int{0, n / 4, n / 2, 3 * n / 4, n}; slices.Equal(want, even) {
		t.Fatal("setup: the costs cut the order evenly; the cost cut goes untested")
	}
}

// TestStepperVerifiedSteps: every tree a stepper hands out passes
// verify.Build across repairs and a caller-forced rebuild — node for node
// against the serial tree, under SPACE's laws, on the fresh steps.
func TestStepperVerifiedSteps(t *testing.T) {
	const n, p = 1500, 4
	b := phys.Generate(phys.ModelPlummer, n, 7)
	st := core.NewStepper(core.Config{P: p, LeafCap: 8}, b, core.FallbackPolicy{})
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.Drift(0, n, 0.01)
		}
		res := st.Step(core.StepInput{Rebuild: i == 3})
		if i == 3 && (!res.Fresh || res.Reason != core.FreshRequested) {
			t.Fatalf("forced rebuild step: fresh=%v reason=%q", res.Fresh, res.Reason)
		}
		if i == 3 && res.Fallback {
			t.Fatal("caller-forced rebuild must not be reported as a rule rebuild")
		}
		if got := verify.Canonical(core.UPDATE, res.Metrics); got != res.Fresh {
			t.Fatalf("step %d: canonical=%v, fresh=%v", i, got, res.Fresh)
		}
		if err := verify.Build(core.UPDATE, res.Tree, res.Metrics, b, res.Step); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
