package adapt

import (
	"math"
	"testing"

	"partree/internal/octree"
)

// seqAssign splits bodies 0..n-1 into even contiguous zones.
func seqAssign(n, p int) [][]int32 {
	out := make([][]int32, p)
	for w := 0; w < p; w++ {
		for i := n * w / p; i < n*(w+1)/p; i++ {
			out[w] = append(out[w], int32(i))
		}
	}
	return out
}

func TestLedgerAttributesMeasuredTime(t *testing.T) {
	lg := NewLedger(0.5)
	assign := seqAssign(8, 2)
	// Zone 0 measured 3x zone 1's time: its bodies' estimates must rise
	// above zone 1's after the blend.
	if !lg.Observe(assign, []int64{3000, 1000}) {
		t.Fatal("observe rejected a valid measurement")
	}
	est := lg.Estimates()
	if len(est) != 8 {
		t.Fatalf("estimate sized %d, want 8", len(est))
	}
	for _, b := range assign[0] {
		for _, c := range assign[1] {
			if est[b] <= est[c] {
				t.Fatalf("slow zone body %d (%.3f) not costlier than fast zone body %d (%.3f)",
					b, est[b], c, est[c])
			}
		}
	}
	// Normalization: mean stays 1.
	var sum float64
	for _, e := range est {
		sum += e
	}
	if mean := sum / float64(len(est)); math.Abs(mean-1) > 1e-9 {
		t.Fatalf("estimates mean %.6f, want 1", mean)
	}
}

func TestLedgerConvergesToMeasuredRatio(t *testing.T) {
	lg := NewLedger(0.5)
	assign := seqAssign(4, 2)
	for i := 0; i < 30; i++ {
		lg.Observe(assign, []int64{3000, 1000})
	}
	est := lg.Estimates()
	// Steady state: zone 0's per-body share is 3x zone 1's.
	ratio := est[0] / est[2]
	if math.Abs(ratio-3) > 0.05 {
		t.Fatalf("converged ratio %.3f, want ~3", ratio)
	}
}

func TestLedgerSkipsUnusableSummaries(t *testing.T) {
	lg := NewLedger(0)
	assign := seqAssign(6, 2)
	if lg.Observe(assign, nil) {
		t.Fatal("accepted no measurement")
	}
	if lg.Observe(assign, []int64{10, 20, 30}) {
		t.Fatal("accepted proc-count mismatch")
	}
	if lg.Observe(assign, []int64{0, 0}) {
		t.Fatal("accepted zero measured time")
	}
	if lg.Observe([][]int32{{}, {}}, []int64{10, 20}) {
		t.Fatal("accepted empty assignment")
	}
}

// TestLedgerEstimatesPinned holds the ledger's arithmetic to the bits the
// trace.Summary-fed Observe produced before the measurement became a
// []int64 (taken at that commit): a modeled seed, two equal corrections,
// one with an idle processor, one with a negative and a huge reading.
func TestLedgerEstimatesPinned(t *testing.T) {
	lg := NewLedger(0.5)
	lg.Costs(octree.BodyData{Cost: []int64{1, 1, 6, 1, 2, 2, 9, 1, 1, 3, 1, 4}}, 12)
	assign := [][]int32{{0, 1, 2, 3, 4}, {5, 6, 7}, {8, 9, 10, 11}}
	for i, ns := range [][]int64{{3000, 1000, 2000}, {3000, 1000, 2000}, {0, 500, 700}, {-5, 1 << 40, 123456789}} {
		if !lg.Observe(assign, ns) {
			t.Fatalf("observation %d rejected", i)
		}
	}
	want := []uint64{
		0x3fc01745d1745d17, 0x3fc01745d1745d17, 0x3fe822e8ba2e8ba2, 0x3fc01745d1745d17,
		0x3fd01745d1745d17, 0x3ff514df9be64e98, 0x4017b77b8f63186b, 0x3fe514df9be64e98,
		0x3fd34856604483bf, 0x3fecec819066c5a0, 0x3fd34856604483bf, 0x3ff34856604483bf,
	}
	for b, e := range lg.Estimates() {
		if got := math.Float64bits(e); got != want[b] {
			t.Errorf("estimate[%d] = %#016x (%v), want %#016x (%v)", b, got, e, want[b], math.Float64frombits(want[b]))
		}
	}
	costs, total := lg.Costs(octree.BodyData{}, 12)
	wantCosts := []int64{128, 128, 772, 128, 257, 1349, 6071, 674, 308, 925, 308, 1234}
	for b, c := range costs {
		if c != wantCosts[b] {
			t.Errorf("cost[%d] = %d, want %d", b, c, wantCosts[b])
		}
	}
	if total != 12282 {
		t.Errorf("total = %d, want 12282", total)
	}
}

func TestLedgerSeedsFromModeledCosts(t *testing.T) {
	lg := NewLedger(0)
	d := octree.BodyData{Cost: []int64{1, 1, 6, 1}}
	costs, total := lg.Costs(d, 4)
	if len(costs) != 4 {
		t.Fatalf("rendered %d costs, want 4", len(costs))
	}
	var sum int64
	for _, c := range costs {
		if c < 1 {
			t.Fatalf("rendered cost %d below floor", c)
		}
		sum += c
	}
	if sum != total {
		t.Fatalf("reported total %d, slice sums to %d", total, sum)
	}
	// Modeled shape survives: body 2 carries ~2/3 of the mass.
	if costs[2] <= 3*costs[0] {
		t.Fatalf("modeled skew lost in seeding: %v", costs)
	}
}

func TestLedgerCostsBounded(t *testing.T) {
	lg := NewLedger(1)
	assign := seqAssign(4, 2)
	// Pathological measurement: all time on one zone, repeated. Clamps
	// and normalization must keep every rendered cost in range.
	for i := 0; i < 50; i++ {
		lg.Observe(assign, []int64{1 << 40, 0})
	}
	costs, total := lg.Costs(octree.BodyData{}, 4)
	if total <= 0 {
		t.Fatalf("total %d", total)
	}
	for i, c := range costs {
		if c < 1 || c > maxCostInt {
			t.Fatalf("cost[%d] = %d out of [1, %d]", i, c, maxCostInt)
		}
	}
}

func TestLedgerResetsOnResize(t *testing.T) {
	lg := NewLedger(0.5)
	lg.Observe(seqAssign(8, 2), []int64{100, 300})
	costs, _ := lg.Costs(octree.BodyData{}, 4)
	if len(costs) != 4 {
		t.Fatalf("rendered %d costs after resize, want 4", len(costs))
	}
	for _, e := range lg.Estimates() {
		if e != 1 {
			t.Fatalf("resize did not reset estimates: %v", lg.Estimates())
		}
	}
}
