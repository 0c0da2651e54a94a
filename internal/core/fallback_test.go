package core

import (
	"runtime"
	"slices"
	"testing"

	"partree/internal/octree"
	"partree/internal/phys"
)

// TestRebuildRule feeds the rule step times in order; a negative time is
// a fresh build taking its magnitude. want lists the steps after which
// the rule asks for a rebuild.
func TestRebuildRule(t *testing.T) {
	cases := []struct {
		name  string
		steps []int64
		want  []int
	}{
		{"a tree that holds never rebuilds", []int64{-100, 10, 10, 10, 10, 10, 10, 10, 10, 10}, nil},
		{"decay rebuilds once its excess pays for a rebuild", []int64{-100, 10, 10, 10, 30, 30, 30, 30, 30, 30}, []int{8, 9}},
		{"the baseline repairs never ask, and base is their least", []int64{-10, 10, 100, 100, 100}, []int{4}},
		{"a slow step in the baseline does not raise base", []int64{-100, 80, 10, 10, 40, 40, 40, 40}, []int{7}},
		{"fast steps bank no credit", []int64{-100, 20, 20, 20, 0, 0, 0, 0, 70, 70}, []int{9}},
		{"a fresh build resets the rule", []int64{-100, 10, 10, 10, 60, 60, -50, 10, 10, 10, 35, 35}, []int{5, 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r rebuildRule
			var got []int
			for i, ns := range tc.steps {
				if r.observe(max(ns, -ns), ns < 0) {
					got = append(got, i)
				}
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("asked for a rebuild after steps %v, want %v", got, tc.want)
			}
		})
	}
}

// FuzzRebuildRule holds the rule to its contract on any sequence of
// non-negative step times: its decisions are a function of the sequence;
// it asks for nothing before baseRepairs repairs have followed a fresh
// build; the excess it tolerates before asking never exceeds the
// rebuild's time plus the largest single step's excess; and once the
// excess reaches the rebuild's time, it asks.
func FuzzRebuildRule(f *testing.F) {
	f.Add([]byte{0, 100, 0, 10, 0, 10, 0, 10, 0, 30, 0, 30, 0, 30, 0, 30, 0, 30, 0, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 50, 1, 0, 0, 10, 0, 10, 0, 200, 0x80, 20, 0, 5, 0x7f, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var a, b rebuildRule
		var rebuild, base, excess, worst int64
		repairs, asked := 0, false
		for i := 0; i+1 < len(data); i += 2 {
			// Two bytes a step: a 15-bit time, and in the top bit a fresh
			// build. The first step, and any after a request, build fresh,
			// as a Stepper's do.
			ns := int64(data[i]&0x7f)<<8 | int64(data[i+1])
			fresh := i == 0 || asked || data[i]&0x80 != 0
			asked = a.observe(ns, fresh)
			if asked != b.observe(ns, fresh) {
				t.Fatalf("step %d: two rules fed the same times disagree", i/2)
			}
			switch {
			case fresh:
				rebuild, base, excess, worst, repairs = ns, 0, 0, 0, 0
			case repairs < baseRepairs:
				if repairs++; repairs == 1 || ns < base {
					base = ns
				}
			default:
				repairs++
				e := max(0, ns-base)
				excess, worst = excess+e, max(worst, e)
			}
			switch {
			case asked && repairs <= baseRepairs:
				t.Fatalf("step %d: asked after %d repairs, before the baseline of %d", i/2, repairs, baseRepairs)
			case asked && excess > rebuild+worst:
				t.Fatalf("step %d: tolerated excess %d past rebuild %d + worst step %d", i/2, excess, rebuild, worst)
			case !asked && repairs > baseRepairs && excess >= rebuild:
				t.Fatalf("step %d: excess %d reached rebuild %d, yet no request", i/2, excess, rebuild)
			}
		}
	})
}

// scriptClock makes st's clock tick by *tick per read, so each Step
// measures exactly *tick: the test, not the host, decides what a step
// cost.
func scriptClock(st *Stepper, tick *int64) {
	var clock int64
	st.now = func() int64 { clock += *tick; return clock }
}

// TestStepperPlummerCollapse runs a Plummer model through a violent
// contraction with the clock scripted so repairs slow as the tree decays:
// the rule must ask for exactly one rebuild, on the step its arithmetic
// predicts, served as a zero-lock SPACE rebuild of a canonical tree — and
// the quiet tail after it must not ask again.
func TestStepperPlummerCollapse(t *testing.T) {
	const n, p, steps = 2000, 4, 24
	b := phys.Generate(phys.ModelPlummer, n, 42)
	st := NewStepper(Config{P: p, LeafCap: 8}, b, FallbackPolicy{})
	var tick int64
	scriptClock(st, &tick)
	for i := 0; i < steps; i++ {
		// Step 0 and the rebuild take 1000, the baseline and the tail
		// 100; collapsing step i ≥ 4 takes 100(i−2), an excess of 100,
		// 200, 300, 400 that reaches the rebuild's 1000 on step 7.
		switch {
		case i == 0 || i == 8:
			tick = 1000
		case i >= 4 && i < 8:
			tick = 100 * int64(i-2)
		default:
			tick = 100
		}
		if i > 0 && i < 8 {
			// Collapse, not uniform scaling: uniform contraction is a
			// no-op for churn because UPDATE rescales the whole tree with
			// the root bounds. Outer shells fall faster (free-fall-like
			// profile), so relative positions shear and bodies cross
			// leaf boundaries in bulk.
			for j := range b.Pos {
				r := b.Pos[j].Len()
				b.Pos[j] = b.Pos[j].Scale(1 / (1 + 0.4*r))
			}
		}
		res := st.Step(StepInput{})
		if res.Step != i {
			t.Fatalf("step %d: result.Step = %d", i, res.Step)
		}
		switch {
		case i == 0:
			if !res.Fresh || res.Reason != FreshFirst || res.Fallback {
				t.Fatalf("step 0: fresh=%v reason=%q fallback=%v, want the first fresh build", res.Fresh, res.Reason, res.Fallback)
			}
		case i == 8:
			if !res.Fallback || !res.Fresh || res.Reason != FreshRequested {
				t.Fatalf("step 8: fallback=%v fresh=%v reason=%q, want the rule's rebuild", res.Fallback, res.Fresh, res.Reason)
			}
			if res.Metrics.TotalLocks() != 0 {
				t.Fatalf("step 8: the rule's SPACE rebuild took %d locks, want 0", res.Metrics.TotalLocks())
			}
		case res.Fresh || res.Fallback:
			t.Fatalf("step %d: fresh=%v fallback=%v reason=%q, want a repair", i, res.Fresh, res.Fallback, res.Reason)
		}
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(res.Tree, d, octree.CheckOptions{Canonical: res.Fresh, Moments: true}); err != nil {
			t.Fatalf("step %d invariants: %v", i, err)
		}
	}
}

// TestStepperRebuildAllocatesNothingBodySized: a warm session's rebuild
// step — re-sort, permutation and SPACE build — allocates under 32 KB at
// n = 50 000, where one body-sized column is 200 KB or more.
func TestStepperRebuildAllocatesNothingBodySized(t *testing.T) {
	const n, limitKB = 50000, 32
	b := phys.Generate(phys.ModelPlummer, n, 21)
	st := NewStepper(Config{P: 1, LeafCap: 8}, b, FallbackPolicy{})
	var before, after runtime.MemStats
	for i := 0; i < 4; i++ {
		b.Drift(0, n, 0.01)
		runtime.ReadMemStats(&before)
		st.Step(StepInput{Rebuild: i > 0})
		runtime.ReadMemStats(&after)
	}
	if kb := (after.TotalAlloc - before.TotalAlloc) / 1024; kb >= limitKB {
		t.Errorf("a warm rebuild step allocated %d KB, want < %d", kb, limitKB)
	} else {
		t.Logf("a warm rebuild step allocated %d KB", kb)
	}
}
