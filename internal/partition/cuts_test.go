package partition

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"partree/internal/phys"
)

// checkCuts fails unless cut is p+1 monotone positions from 0 to n whose
// zones cover slots 0..n-1 exactly once.
func checkCuts(t *testing.T, cut []int, n, p int) {
	t.Helper()
	if len(cut) != p+1 || cut[0] != 0 || cut[p] != n {
		t.Fatalf("cuts %v: want %d positions from 0 to %d", cut, p+1, n)
	}
	for k := 1; k <= p; k++ {
		if cut[k] < cut[k-1] {
			t.Fatalf("cuts %v not monotone at %d", cut, k)
		}
	}
	if err := Validate(cutZones(allBodies(n), cut), n); err != nil {
		t.Fatalf("cuts %v: %v", cut, err)
	}
}

// FuzzMoveCuts: whatever the measured times — zero, negative, huge, one
// too many or too few — and whatever n and p, a moved cut stays a
// partition: monotone, pinned to 0 and n, an exact cover, and moving it
// allocates nothing.
func FuzzMoveCuts(f *testing.F) {
	f.Add(uint16(1000), uint8(4), int64(3000), int64(1000), int64(2000), int8(0), uint8(3))
	f.Add(uint16(7), uint8(16), int64(1<<62), int64(0), int64(-5), int8(0), uint8(9))
	f.Add(uint16(0), uint8(3), int64(-1), int64(-1), int64(-1), int8(0), uint8(1))
	f.Add(uint16(500), uint8(2), int64(math.MaxInt64), int64(math.MaxInt64), int64(1), int8(1), uint8(2))
	f.Add(uint16(64), uint8(8), int64(5), int64(0), int64(0), int8(-1), uint8(4))
	f.Fuzz(func(t *testing.T, n16 uint16, p8 uint8, a, b, c int64, extra int8, rounds uint8) {
		n, p := int(n16), int(p8)%64+1
		ns := make([]int64, max(p+int(extra)%2, 0))
		for w := range ns {
			ns[w] = [3]int64{a, b, c}[w%3] / int64(1+w/3)
		}
		cut, next := costRanges(make([]int64, n), p), make([]int, p+1)
		checkCuts(t, cut, n, p)
		for r := 0; r < int(rounds%16)+1; r++ {
			skew := MoveCuts(next, cut, ns)
			if len(ns) != p && skew != 0 {
				t.Fatalf("%d times for %d zones moved the cuts", len(ns), p)
			}
			if skew < 0 || math.IsNaN(skew) || math.IsInf(skew, 0) {
				t.Fatalf("predicted skew %v", skew)
			}
			if skew == 0 && !slices.Equal(next, cut) {
				t.Fatalf("no signal, yet the cuts moved: %v -> %v", cut, next)
			}
			checkCuts(t, next, n, p)
			cut, next = next, cut
		}
		if allocs := testing.AllocsPerRun(3, func() { MoveCuts(next, cut, ns) }); allocs != 0 {
			t.Fatalf("MoveCuts allocated %.0f times per call", allocs)
		}
	})
}

// TestMoveCutsTargets pins the model on a case small enough to do by
// hand: four zones of 100 slots, the first measured 5× the others. The
// cumulative time 0, 500, 600, 700, 800 puts a quarter of the total (200)
// 40 slots into zone 0, half (400) at 80 and three quarters (600) at 200;
// each cut goes half the way there.
func TestMoveCutsTargets(t *testing.T) {
	cut, next := []int{0, 100, 200, 300, 400}, make([]int, 5)
	skew := MoveCuts(next, cut, []int64{500, 100, 100, 100})
	if want := []int{0, 70, 140, 250, 400}; !slices.Equal(next, want) {
		t.Fatalf("moved to %v, want %v", next, want)
	}
	// At the new cuts the model prices zone 0 at 350 of 800: 1.75 × mean.
	if math.Abs(skew-1.75) > 1e-12 {
		t.Fatalf("predicted skew %v, want 1.75", skew)
	}
	// Balanced times leave balanced cuts where they are.
	if MoveCuts(next, cut, []int64{7, 7, 7, 7}); !slices.Equal(next, cut) {
		t.Fatalf("balanced times moved the cuts to %v", next)
	}
	for _, ns := range [][]int64{nil, {1, 2, 3}, {0, 0, 0, 0}, {-4, -1, 0, -9}} {
		if skew := MoveCuts(next, cut, ns); skew != 0 || !slices.Equal(next, cut) {
			t.Fatalf("times %v carry no signal, yet moved the cuts to %v (skew %v)", ns, next, skew)
		}
	}
}

// resident sorts b into Morton order, as core.Stepper keeps a session's
// bodies.
func resident(b *phys.Bodies) *phys.Bodies {
	b.Permute(Order(b.Pos, b.Bounds(1e-4)))
	return b
}

// plummerCosts models what the hardware "actually" spends per body on the
// skewed Plummer distribution: cost falls off with radius, so the dense
// core is orders of magnitude more expensive than the outskirts — the
// regime where modeled-uniform costs mispartition worst. Deterministic
// in the body positions, hence in the generator seed.
func plummerCosts(b *phys.Bodies) []int64 {
	out := make([]int64, b.N())
	for i := range out {
		r2 := b.Pos[i].Dot(b.Pos[i])
		out[i] = 1 + int64(4096/(1+16*r2))
	}
	return out
}

// densityCosts models per-body cost on multi-center distributions:
// proportional to local crowding (neighbors within a fixed radius), the
// regime hierarchical clustering creates — many separated dense knots
// rather than one central cusp, so a zone that lands on a sub-halo pays
// far more than its body count suggests. O(n²), deterministic in seed.
func densityCosts(b *phys.Bodies, radius float64) []int64 {
	out := make([]int64, b.N())
	r2 := radius * radius
	for i := range out {
		n := int64(0)
		for j := 0; j < b.N(); j++ {
			if b.Pos[i].Dist2(b.Pos[j]) < r2 {
				n++
			}
		}
		out[i] = n // counts itself, so ≥ 1
	}
	return out
}

// zoneTimes is what a build under cut would measure per processor if each
// body took exactly its true cost: one nanosecond per unit. Deterministic,
// so the gates cannot flake on scheduler noise the way wall-clock
// measurements would.
func zoneTimes(cut []int, truth []int64) []int64 {
	ns := make([]int64, len(cut)-1)
	for w := range ns {
		for _, c := range truth[cut[w]:cut[w+1]] {
			ns[w] += c
		}
	}
	return ns
}

// skewOf is max/mean of the zone times: 1.0 is perfect balance.
func skewOf(ns []int64) float64 {
	var total, worst int64
	for _, v := range ns {
		total, worst = total+v, max(worst, v)
	}
	return float64(worst) * float64(len(ns)) / float64(total)
}

// moveRounds runs the boundary controller rounds times from the static
// cost cut over truth's synthesized times and returns both skews.
func moveRounds(t *testing.T, b *phys.Bodies, truth []int64, p, rounds int) (static, moved float64) {
	t.Helper()
	cut, next := costRanges(b.Cost, p), make([]int, p+1)
	static = skewOf(zoneTimes(cut, truth))
	for r := 0; r < rounds; r++ {
		MoveCuts(next, cut, zoneTimes(cut, truth))
		cut, next = next, cut
		checkCuts(t, cut, b.N(), p)
	}
	return static, skewOf(zoneTimes(cut, truth))
}

// TestAdaptiveBeatsStaticOnHierarchical: on the hierarchical clustering
// scenario (nested Plummer sub-halos) the static cost cut splits by
// modeled-uniform counts and lands zones across sub-halo boundaries; the
// cut moves must bring the max/mean skew strictly below it, within 1.10
// in 10 rounds, at p ∈ {4, 8} — h1's verdict, as a unit test.
func TestAdaptiveBeatsStaticOnHierarchical(t *testing.T) {
	b := resident(phys.Generate(phys.ModelHierarchical, 4000, 7))
	truth := densityCosts(b, 0.2)
	for _, p := range []int{4, 8} {
		t.Run(fmt.Sprintf("p%d", p), func(t *testing.T) {
			static, moved := moveRounds(t, b, truth, p, 10)
			t.Logf("static %.4f, after 10 rounds %.4f", static, moved)
			if static < 1.25 {
				t.Fatalf("static skew %.4f: the scenario is not stressing the partition", static)
			}
			if moved >= static || moved > 1.10 {
				t.Fatalf("after 10 rounds skew %.4f, want ≤ 1.10 and below static %.4f", moved, static)
			}
		})
	}
}

// TestAdaptiveReducesSkew: on the skewed Plummer distribution the cut
// moves must land strictly below the static cost cut's max/mean skew and
// within 30 % of perfect balance — a loose ceiling that still fails if the
// model's arithmetic regresses.
func TestAdaptiveReducesSkew(t *testing.T) {
	cases := []struct {
		name   string
		n, p   int
		seed   int64
		rounds int
	}{
		{"p4", 6000, 4, 29, 12},
		{"p8", 6000, 8, 31, 12},
		{"p16-small", 3000, 16, 37, 14},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := resident(phys.Generate(phys.ModelPlummer, tc.n, tc.seed))
			static, moved := moveRounds(t, b, plummerCosts(b), tc.p, tc.rounds)
			t.Logf("static %.4f, after %d rounds %.4f", static, tc.rounds, moved)
			if moved >= static {
				t.Fatalf("moved skew %.4f not strictly below static %.4f", moved, static)
			}
			if moved > 1.30 {
				t.Fatalf("moved skew %.4f did not converge near 1 (static was %.4f)", moved, static)
			}
		})
	}
}
