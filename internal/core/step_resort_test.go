package core_test

import (
	"slices"
	"testing"

	"partree/internal/core"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/verify"
)

// TestAdaptiveSessionResorts: an adaptive session is no longer exempt
// from re-sorting. After steps of drift its cuts have moved and its bodies
// have left Morton order; a Rebuild step must sort them again, keep the
// cuts where they were (they are positions, not bodies), and build a tree
// verify.Build accepts.
func TestAdaptiveSessionResorts(t *testing.T) {
	const n, p = 3000, 4
	b := phys.Generate(phys.ModelPlummer, n, 13)
	st := core.NewAdaptiveStepper(core.Config{P: p, LeafCap: 8}, b, core.FallbackPolicy{})
	core.SteadyClock(st)
	cuts := func() []int {
		out := []int{0}
		for _, zone := range st.Assign() {
			out = append(out, out[len(out)-1]+len(zone))
		}
		return out
	}
	sorted := func() bool {
		k := partition.NewKeyer(b.Bounds(core.RootMargin))
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
	before := cuts()
	res := st.Step(core.StepInput{Rebuild: true})
	if !res.Fresh || res.Reason != core.FreshRequested {
		t.Fatalf("rebuild step: fresh=%v reason %q", res.Fresh, res.Reason)
	}
	if !sorted() {
		t.Fatal("a from-scratch step left the adaptive session's bodies out of Morton order")
	}
	if slices.Equal(ids, b.ID) {
		t.Fatal("the re-sort moved no body")
	}
	if err := verify.Build(core.UPDATE, res.Tree, res.Metrics, b, res.Step); err != nil {
		t.Fatal(err)
	}
	// The cuts survived the re-sort: the step's own move, made from them,
	// is where they are now.
	ns := make([]int64, p)
	for w := range ns {
		ns[w] = res.Metrics.PerP[w].PhaseNs[trace.PhaseInsert]
	}
	want := make([]int, p+1)
	if partition.MoveCuts(want, before, ns); !slices.Equal(cuts(), want) {
		t.Fatalf("the re-sort moved the cuts: %v before, %v after, the step's move from them gives %v", before, cuts(), want)
	}
}
