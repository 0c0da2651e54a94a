package core

import (
	"testing"

	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
)

func copyAssign(assign [][]int32) [][]int32 {
	out := make([][]int32, len(assign))
	for w := range assign {
		out[w] = append([]int32(nil), assign[w]...)
	}
	return out
}

func assignsEqual(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			return false
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				return false
			}
		}
	}
	return true
}

// TestStepperRepartitionsPerStep is the staleness regression test: the
// stepper used to compute the body→processor assignment once at
// construction and reuse it (and its costs) for every subsequent step.
// The static cut follows the per-body costs along the resident order, so
// once a differential collapse has concentrated the cost (the caller
// writes Cost as a force pass would: the dense core is expensive), step
// k's partition must differ from step 0's — and still cover every body
// exactly once, each zone one contiguous range of slots.
func TestStepperRepartitionsPerStep(t *testing.T) {
	const n, p = 2000, 4
	b := phys.Generate(phys.ModelPlummer, n, 3)
	st := NewStepper(Config{P: p, LeafCap: 8}, b, FallbackPolicy{MinSteps: 1 << 20})
	step0 := copyAssign(st.Assign())
	if err := partition.Validate(step0, n); err != nil {
		t.Fatalf("step-0 assignment: %v", err)
	}
	for i := 0; i < 6; i++ {
		if i > 0 {
			// Differential collapse: outer bodies fall inward faster.
			for j := range b.Pos {
				r := b.Pos[j].Len()
				b.Pos[j] = b.Pos[j].Scale(1 / (1 + 0.35*r))
				b.Cost[j] = 1 + int64(64/(0.05+b.Pos[j].Len()))
			}
		}
		st.Step(StepInput{})
		if err := partition.Validate(st.Assign(), n); err != nil {
			t.Fatalf("step %d assignment: %v", i, err)
		}
		for w, zone := range st.Assign() {
			for k := 1; k < len(zone); k++ {
				if zone[k] != zone[k-1]+1 {
					t.Fatalf("step %d zone %d is not one contiguous slot range at %d", i, w, k)
				}
			}
		}
	}
	if assignsEqual(step0, st.Assign()) {
		t.Fatal("assignment after the costs moved is identical to step 0's — the partition never refreshed")
	}
}

// recordingAdapter is a minimal core.Adapter for exercising the stepper's
// adaptive plumbing without importing internal/adapt (which imports this
// package): it counts calls and the steps whose metrics carried an
// insert time for every zone of the assignment they were built with.
type recordingAdapter struct {
	observes   int
	measured   int
	partitions int
}

func (a *recordingAdapter) Observe(assign [][]int32, m *Metrics) {
	a.observes++
	if len(m.PerP) != len(assign) {
		return
	}
	for w := range m.PerP {
		if m.PerP[w].InsertNs <= 0 {
			return
		}
	}
	a.measured++
}

func (a *recordingAdapter) Partition(t *octree.Tree, d octree.BodyData, p int) [][]int32 {
	a.partitions++
	return partition.Costzones(t, d, p)
}

// TestAdaptiveStepperPlumbing checks the adapter contract end to end: no
// step runs a trace recorder (the adaptive constructor creates none), the
// adapter observes each step's per-processor insert times and cuts each
// next partition, and no step but the first rebuilds.
func TestAdaptiveStepperPlumbing(t *testing.T) {
	const n, p = 1500, 4
	b := phys.Generate(phys.ModelPlummer, n, 5)
	ad := &recordingAdapter{}
	st := NewAdaptiveStepper(Config{P: p, LeafCap: 8}, b, FallbackPolicy{MinSteps: 1 << 20}, ad)
	for i := 0; i < 6; i++ {
		if i > 0 {
			b.Drift(0, n, 0.01)
		}
		res := st.Step(StepInput{})
		if res.Metrics.Trace != nil {
			t.Fatalf("step %d: adaptive step ran a trace recorder", i)
		}
		if res.Fresh != (i == 0) || res.Fallback {
			t.Fatalf("step %d: fresh=%v reason=%q fallback=%v, want a rebuild on step 0 only", i, res.Fresh, res.Reason, res.Fallback)
		}
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(res.Tree, d, octree.CheckOptions{Canonical: res.Fresh, Moments: true, Tol: 1e-9}); err != nil {
			t.Fatalf("step %d invariants: %v", i, err)
		}
		if err := partition.Validate(st.Assign(), n); err != nil {
			t.Fatalf("step %d next assignment: %v", i, err)
		}
	}
	if ad.observes != 6 || ad.partitions != 6 {
		t.Fatalf("adapter saw %d observes / %d partitions, want 6/6", ad.observes, ad.partitions)
	}
	if ad.measured != 6 {
		t.Fatalf("adapter got per-processor insert times on %d steps, want 6", ad.measured)
	}
}
