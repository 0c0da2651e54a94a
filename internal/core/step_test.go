package core

import (
	"testing"

	"partree/internal/partition"
	"partree/internal/phys"
)

// SteadyClock makes every step of st measure the same time, so its
// rebuild rule never asks for a rebuild: a test that counts fresh builds
// counts only its own.
func SteadyClock(st *Stepper) {
	tick := int64(1)
	scriptClock(st, &tick)
}

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
	st := NewStepper(Config{P: p, LeafCap: 8}, b, FallbackPolicy{})
	SteadyClock(st)
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
