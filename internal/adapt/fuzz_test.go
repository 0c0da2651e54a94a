package adapt

import (
	"math"
	"testing"

	"partree/internal/octree"
)

// FuzzLedgerBlend hammers the EWMA update with arbitrary blend weights,
// measured times (including negatives and extremes), and modeled seed
// costs: whatever comes in, the estimates must stay finite, positive,
// inside the clamp band, and normalized, and the rendered integer costs
// must stay in [1, maxCostInt] with a non-overflowing positive total.
func FuzzLedgerBlend(f *testing.F) {
	f.Add(0.3, int64(1000), int64(2000), int64(3000), int64(1), uint8(3))
	f.Add(1.0, int64(1<<62), int64(0), int64(-5), int64(1<<40), uint8(1))
	f.Add(-2.5, int64(-1), int64(-1), int64(-1), int64(0), uint8(7))
	f.Add(math.Inf(1), int64(7), int64(7), int64(7), int64(math.MaxInt64), uint8(2))
	f.Fuzz(func(t *testing.T, alpha float64, ns0, ns1, ns2 int64, seedCost int64, rounds uint8) {
		const n, p = 30, 3
		lg := NewLedger(alpha)
		if !(lg.alpha > 0) || lg.alpha > 1 {
			t.Fatalf("constructor let alpha %v through as %v", alpha, lg.alpha)
		}
		modeled := make([]int64, n)
		for i := range modeled {
			modeled[i] = seedCost
		}
		d := octree.BodyData{Cost: modeled}
		assign := seqAssign(n, p)
		sum := []int64{ns0, ns1, ns2}
		lg.Costs(d, n) // seed from modeled first, like a step-0 partition
		for r := 0; r < int(rounds%16)+1; r++ {
			lg.Observe(assign, sum)
		}
		var estSum float64
		for i, e := range lg.Estimates() {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				t.Fatalf("estimate[%d] = %v", i, e)
			}
			if e < minEst || e > maxEst {
				t.Fatalf("estimate[%d] = %v escaped clamp [%v, %v]", i, e, float64(minEst), float64(maxEst))
			}
			estSum += e
		}
		if len(lg.Estimates()) != n {
			t.Fatalf("estimate sized %d, want %d", len(lg.Estimates()), n)
		}
		costs, total := lg.Costs(d, n)
		var check int64
		for i, c := range costs {
			if c < 1 || c > maxCostInt {
				t.Fatalf("cost[%d] = %d out of [1, %d]", i, c, int64(maxCostInt))
			}
			check += c
		}
		if total != check || total <= 0 {
			t.Fatalf("total %d, slice sums to %d", total, check)
		}
	})
}
