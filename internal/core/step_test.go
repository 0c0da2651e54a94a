package core

import (
	"slices"
	"testing"

	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/trace"
)

// RootMargin lets the external tests key bodies in the domain the
// stepper sorts them in.
const RootMargin = rootMargin

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

// TestAdaptiveStepperPlumbing runs the boundary controller over real,
// untraced builds: every step verifies, every zone is one contiguous slot
// range, and the next cuts are exactly where partition.MoveCuts puts the
// last ones by the step's measured insert times — so where those times
// were skewed, the cuts moved. It asserts no wall-clock ratio: whatever
// the times were, the cuts must follow them.
func TestAdaptiveStepperPlumbing(t *testing.T) {
	const n, p, steps = 4000, 4, 10
	b := phys.Generate(phys.ModelPlummer, n, 41)
	reps, corr, sess := adaptRepartitions.Value(), adaptCorrections.Value(), adaptSessions.Value()
	st := NewAdaptiveStepper(Config{P: p, LeafCap: 8}, b, FallbackPolicy{})
	SteadyClock(st)
	want := make([]int, p+1)
	for i := 0; i < steps; i++ {
		if i > 0 {
			b.Drift(0, n, 0.01)
		}
		before := slices.Clone(st.cut)
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
		ns := make([]int64, p)
		var total, worst int64
		for w := range ns {
			ns[w] = res.Metrics.PerP[w].PhaseNs[trace.PhaseInsert]
			total, worst = total+ns[w], max(worst, ns[w])
		}
		if partition.MoveCuts(want, before, ns); !slices.Equal(st.cut, want) {
			t.Fatalf("step %d: insert times %v moved the cuts %v to %v, want %v", i, ns, before, st.cut, want)
		}
		if float64(worst*p) >= 1.05*float64(total) && slices.Equal(st.cut, before) {
			t.Fatalf("step %d: insert times %v are skewed, yet the cuts stayed at %v", i, ns, before)
		}
		for w, zone := range st.Assign() {
			if len(zone) != st.cut[w+1]-st.cut[w] || len(zone) > 0 && int(zone[0]) != st.cut[w] {
				t.Fatalf("step %d: zone %d is not the slots [%d, %d)", i, w, st.cut[w], st.cut[w+1])
			}
		}
	}
	if got := adaptSessions.Value() - sess; got != 1 {
		t.Fatalf("sessions total advanced by %v, want 1", got)
	}
	if got := adaptRepartitions.Value() - reps; got != steps {
		t.Fatalf("repartitions advanced by %v, want %d", got, steps)
	}
	if got := adaptCorrections.Value() - corr; got != steps {
		t.Fatalf("corrections advanced by %v, want %d: every step measured its insert times", got, steps)
	}
	if adaptSkewBefore.get() < 1 || adaptSkewAfter.get() < 1 {
		t.Fatalf("skew gauges before %v / after %v unpublished or below 1", adaptSkewBefore.get(), adaptSkewAfter.get())
	}
}
