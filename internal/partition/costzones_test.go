package partition

import (
	"math/rand"
	"slices"
	"testing"

	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/phys"
)

func prepared(t *testing.T, n int, seed int64, withCosts bool) (*phys.Bodies, *octree.Tree, octree.BodyData) {
	t.Helper()
	b := phys.Generate(phys.ModelPlummer, n, seed)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	if withCosts {
		// Run one real force pass so costs reflect actual interaction
		// counts, then refresh the tree's cost moments.
		force.ComputeAll(tr, b, [][]int32{allBodies(n)}, force.DefaultParams())
		octree.ComputeMomentsSerial(tr, d)
	}
	return b, tr, d
}

func allBodies(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

func TestCostzonesCoversAllBodies(t *testing.T) {
	for _, p := range []int{1, 2, 7, 16} {
		_, tr, d := prepared(t, 3000, 5, false)
		assign := Costzones(tr, d, p)
		if len(assign) != p {
			t.Fatalf("p=%d: got %d zones", p, len(assign))
		}
		if err := Validate(assign, 3000); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestCostzonesBalanced(t *testing.T) {
	_, tr, d := prepared(t, 20000, 7, true)
	for _, p := range []int{4, 16} {
		assign := Costzones(tr, d, p)
		if err := Validate(assign, 20000); err != nil {
			t.Fatal(err)
		}
		if imb := Imbalance(assign, d); imb > 1.10 {
			t.Fatalf("p=%d: imbalance %.3f exceeds 1.10", p, imb)
		}
	}
}

func TestCostzonesDeterministic(t *testing.T) {
	_, tr, d := prepared(t, 2000, 9, true)
	a := Costzones(tr, d, 8)
	b := Costzones(tr, d, 8)
	for w := range a {
		if len(a[w]) != len(b[w]) {
			t.Fatalf("zone %d lengths differ", w)
		}
		for i := range a[w] {
			if a[w][i] != b[w][i] {
				t.Fatalf("zone %d element %d differs", w, i)
			}
		}
	}
}

func TestCostzonesSpatialLocality(t *testing.T) {
	// Zones follow tree order, so a zone's bodies should be clustered:
	// the mean intra-zone spread must be well below the global spread.
	b, tr, d := prepared(t, 8000, 11, true)
	assign := Costzones(tr, d, 16)
	globalSpread := meanDistToCentroid(b, allBodies(b.N()))
	var zoneSpread float64
	for _, zone := range assign {
		zoneSpread += meanDistToCentroid(b, zone)
	}
	zoneSpread /= float64(len(assign))
	if zoneSpread > 0.8*globalSpread {
		t.Fatalf("zones not spatially coherent: zone spread %.3f vs global %.3f", zoneSpread, globalSpread)
	}
}

func meanDistToCentroid(b *phys.Bodies, idx []int32) float64 {
	if len(idx) == 0 {
		return 0
	}
	var c = b.Pos[idx[0]]
	for _, i := range idx[1:] {
		c = c.Add(b.Pos[i])
	}
	c = c.Scale(1 / float64(len(idx)))
	var sum float64
	for _, i := range idx {
		sum += b.Pos[i].Dist(c)
	}
	return sum / float64(len(idx))
}

// TestCostzonesSkewedCosts drives costzones with heavily skewed per-body
// costs shaped by the Plummer density profile itself: cost falls off with
// radius, so the dense core is orders of magnitude more expensive than
// the outskirts — the regime costzones exists for. Coverage must stay
// exact, and each zone's cost must stay within the scheme's theoretical
// bound: a zone covers a total/p window of the accumulated cost sequence,
// so it can exceed the mean by at most one body's cost (the straddler).
func TestCostzonesSkewedCosts(t *testing.T) {
	const n = 12000
	b := phys.Generate(phys.ModelPlummer, n, 13)
	var maxCost, total int64
	for i := range b.Cost {
		r2 := b.Pos[i].Dot(b.Pos[i])
		c := 1 + int64(4096/(1+16*r2))
		b.Cost[i] = c
		total += c
		if c > maxCost {
			maxCost = c
		}
	}
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)

	for _, p := range []int{2, 5, 16} {
		assign := Costzones(tr, d, p)
		if err := Validate(assign, n); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		bound := total/int64(p) + maxCost
		for w, zone := range assign {
			var zc int64
			for _, i := range zone {
				zc += d.CostOf(i)
			}
			if zc > bound {
				t.Errorf("p=%d zone %d: cost %d exceeds total/p+max = %d+%d",
					p, w, zc, total/int64(p), maxCost)
			}
		}
		if imb := Imbalance(assign, d); imb > 1+float64(p)*float64(maxCost)/float64(total) {
			t.Errorf("p=%d: imbalance %.4f beyond the one-straddler bound", p, imb)
		}
	}
}

func TestCostzonesEmptyAndTiny(t *testing.T) {
	tr := octree.BuildSerial(nil, 8)
	assign := Costzones(tr, octree.BodyData{}, 4)
	if err := Validate(assign, 0); err != nil {
		t.Fatal(err)
	}
	_, tr2, d2 := prepared(t, 3, 1, false)
	assign = Costzones(tr2, d2, 8)
	if err := Validate(assign, 3); err != nil {
		t.Fatal(err)
	}
}

// TestCostzonesZeroTotalCost is the regression test for the degenerate
// total==0 case: before a force pass or any measurement runs, every
// Cost entry can legitimately be zero. Costzones must still hand out an
// exact cover — and an even one, not all bodies piled into zone 0.
func TestCostzonesZeroTotalCost(t *testing.T) {
	const n = 1000
	b := phys.Generate(phys.ModelPlummer, n, 17)
	for i := range b.Cost {
		b.Cost[i] = 0
	}
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	if got := rootCost(tr); got != 0 {
		t.Fatalf("setup: root cost = %d, want 0", got)
	}
	for _, p := range []int{1, 4, 7} {
		assign := Costzones(tr, d, p)
		if err := Validate(assign, n); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		min, max := n, 0
		for _, zone := range assign {
			if len(zone) < min {
				min = len(zone)
			}
			if len(zone) > max {
				max = len(zone)
			}
		}
		if max-min > 1 {
			t.Fatalf("p=%d: zero-cost fallback not an even split: zone sizes range [%d,%d]", p, min, max)
		}
	}
}

// TestCostzonesSingleHeavyBody pins the other degenerate edge: one body
// carrying the entire tree cost. All zone boundaries land on that one
// body, but coverage must stay exact — bodies before it share zone 0,
// bodies after it land in the last zone, nothing is dropped.
func TestCostzonesSingleHeavyBody(t *testing.T) {
	const n = 500
	b := phys.Generate(phys.ModelPlummer, n, 19)
	for i := range b.Cost {
		b.Cost[i] = 0
	}
	b.Cost[n/2] = 1 << 20
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	for _, p := range []int{2, 8} {
		assign := Costzones(tr, d, p)
		if err := Validate(assign, n); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

// TestCostzonesNegativeCostClamped: a negative per-body cost (corrupt
// measurement) must not walk the accumulator backwards or break the
// exact-cover invariant.
func TestCostzonesNegativeCostClamped(t *testing.T) {
	const n = 800
	b := phys.Generate(phys.ModelPlummer, n, 23)
	for i := range b.Cost {
		b.Cost[i] = 10
	}
	for i := 0; i < n; i += 7 {
		b.Cost[i] = -50
	}
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	for _, p := range []int{3, 8} {
		assign := Costzones(tr, d, p)
		if err := Validate(assign, n); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	if err := Validate([][]int32{{0, 1}, {1}}, 3); err == nil {
		t.Fatal("accepted duplicate")
	}
	if err := Validate([][]int32{{0}}, 2); err == nil {
		t.Fatal("accepted missing body")
	}
	if err := Validate([][]int32{{5}}, 2); err == nil {
		t.Fatal("accepted out-of-range body")
	}
}

// refCostzonesTotal is costzones as it was first written — one 64-bit
// divide per body, each zone grown by append — kept as the oracle the
// boundary-stepping version must match element for element.
func refCostzonesTotal(t *octree.Tree, d octree.BodyData, p int, total int64) [][]int32 {
	out := make([][]int32, p)
	if t.Root.IsNil() || p == 0 {
		return out
	}
	unit := total <= 0
	if unit {
		total = int64(octree.CollectStats(t).Bodies)
		if total == 0 {
			return out
		}
	}
	var acc int64
	octree.Walk(t, func(r octree.Ref, _ int) bool {
		if !r.IsLeaf() {
			return true
		}
		for _, b := range t.Store.Leaf(r).Bodies {
			c := d.CostOf(b)
			if unit {
				c = 1
			} else if c < 0 {
				c = 0
			}
			w := int(acc * int64(p) / total)
			if w >= p {
				w = p - 1
			}
			out[w] = append(out[w], b)
			acc += c
		}
		return true
	})
	return out
}

// costShapes are the cost distributions the cuts are held to: smooth,
// zero-heavy, one dominant body, some negative, all zero, all negative.
var costShapes = map[string]func(r *rand.Rand, i int) int64{
	"uniform":      func(r *rand.Rand, _ int) int64 { return 1 + r.Int63n(100) },
	"mostly-zero":  func(r *rand.Rand, _ int) int64 { return max(0, r.Int63n(40)-30) },
	"heavy-tailed": func(r *rand.Rand, _ int) int64 { return 1 + r.Int63n(1<<uint(r.Intn(24))) },
	"one-giant": func(r *rand.Rand, i int) int64 {
		if i == 17 {
			return 1 << 30
		}
		return r.Int63n(3)
	},
	"some-negative": func(r *rand.Rand, _ int) int64 { return r.Int63n(60) - 10 },
	"all-zero":      func(*rand.Rand, int) int64 { return 0 },
	"all-negative":  func(r *rand.Rand, _ int) int64 { return -1 - r.Int63n(9) },
}

func sameAssign(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if !slices.Equal(a[w], b[w]) {
			return false
		}
	}
	return true
}

// TestCostzonesMatchesDivideOracle: stepping the zone index against
// precomputed boundaries ⌈k·total/p⌉ places every body where the
// per-body ⌊acc·p/total⌋ did — for every cost shape and processor count.
func TestCostzonesMatchesDivideOracle(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for name, shape := range costShapes {
		for rep := 0; rep < 6; rep++ {
			n := 1 + r.Intn(3000)
			b := phys.Generate(phys.ModelPlummer, n, int64(rep+1))
			var sum int64
			for i := range b.Cost {
				b.Cost[i] = shape(r, i)
				sum += b.Cost[i]
			}
			tr := octree.BuildSerial(b.Pos, 1+r.Intn(8))
			d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
			octree.ComputeMomentsSerial(tr, d)
			for _, p := range []int{1, 2, 3, 7, 16, 64} {
				if got, want := Costzones(tr, d, p), refCostzonesTotal(tr, d, p, sum); !sameAssign(got, want) {
					t.Fatalf("%s n=%d p=%d: Costzones departs from the divide-per-body formula", name, n, p)
				}
			}
		}
	}
}

// TestCostzonesEmitsIntoOneArray: the zones are capped windows of one
// backing array sized up front — an append to one reallocates instead of
// overwriting its neighbour, and a call allocates a fixed handful of
// objects however many bodies it places (zones grown by append took
// dozens).
func TestCostzonesEmitsIntoOneArray(t *testing.T) {
	_, tr, d := prepared(t, 20000, 3, false)
	for w, zone := range Costzones(tr, d, 4) {
		if cap(zone) != len(zone) {
			t.Fatalf("zone %d: cap %d beyond len %d", w, cap(zone), len(zone))
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { Costzones(tr, d, 4) }); allocs > 6 {
		t.Fatalf("Costzones allocated %.0f times per call", allocs)
	}
}

// TestCostRangesProperties: for every cost shape the ranges cover the
// index exactly once, each zone is one contiguous run and the zones
// follow one another, they are where the divide-per-body formula puts
// them, and no zone's cost exceeds the mean by more than one body's.
func TestCostRangesProperties(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	for name, shape := range costShapes {
		for rep := 0; rep < 8; rep++ {
			n := r.Intn(4000)
			cost := make([]int64, n)
			var sum, minCost, maxCost int64
			for i := range cost {
				cost[i] = shape(r, i)
				sum += cost[i]
				minCost, maxCost = min(minCost, cost[i]), max(maxCost, cost[i])
			}
			index := allBodies(n)
			for _, p := range []int{1, 2, 3, 7, 16, 64} {
				zones := cutZones(index, costRanges(cost, p))
				if err := Validate(zones, n); err != nil {
					t.Fatalf("%s n=%d p=%d: %v", name, n, p, err)
				}
				// The oracle, on a flat sequence.
				unit, total := sum <= 0, sum
				if unit {
					total = int64(n)
				}
				var acc int64
				next := int32(0)
				for w, zone := range zones {
					var zc int64
					for _, b := range zone {
						if b != next {
							t.Fatalf("%s n=%d p=%d: zone %d holds %d where the run expects %d", name, n, p, w, b, next)
						}
						next++
						c := cost[b]
						if unit {
							c = 1
						} else if c < 0 {
							c = 0
						}
						if want := min(int(acc*int64(p)/total), p-1); want != w {
							t.Fatalf("%s n=%d p=%d: body %d in zone %d, the formula says %d", name, n, p, b, w, want)
						}
						acc += c
						zc += c
					}
					if cap(zone) != len(zone) {
						t.Fatalf("%s n=%d p=%d: zone %d is not capped at its end", name, n, p, w)
					}
					// A zone is a total/p window of the accumulated
					// cost, overshot by at most its last body — when
					// the total counts what the bodies weigh: a negative
					// cost is in the total but weighs zero.
					if bound := total/int64(p) + 1 + max(maxCost, 1); zc > bound && (unit || minCost >= 0) {
						t.Fatalf("%s n=%d p=%d: zone %d costs %d, beyond mean+max = %d", name, n, p, w, zc, bound)
					}
				}
			}
		}
	}
}

// fullSweepRanges is CostRanges as a full sweep over every body at every
// p, the differential oracle of TestCostRangesMatchesFullSweep.
func fullSweepRanges(cost []int64, p int) []int {
	cut := make([]int, p+1)
	var total int64
	for _, c := range cost {
		total += c
	}
	z := newZoner(p, total, int64(len(cost)))
	w := 0
	for i, c := range cost {
		for zw := z.place(c); w < zw; w++ {
			cut[w+1] = i
		}
	}
	for ; w < p; w++ {
		cut[w+1] = len(cost)
	}
	return cut
}

// TestCostRangesMatchesFullSweep: one zone skips the sweep and more stop
// it once the last zone opens, and the cuts are the full sweep's —
// at p = 1 and 2, where a served session and a two-processor build cut,
// and beyond; empty, one-body and zero-cost columns included.
func TestCostRangesMatchesFullSweep(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for name, shape := range costShapes {
		for _, n := range []int{0, 1, 2, 17, 3000} {
			cost := make([]int64, n)
			for i := range cost {
				cost[i] = shape(r, i)
			}
			for _, p := range []int{1, 2, 3, 5, 64} {
				if got, want := costRanges(cost, p), fullSweepRanges(cost, p); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d p=%d: cuts %v, the full sweep's %v", name, n, p, got, want)
				}
			}
		}
	}
}

// TestCostRangesZeroTotalIsEvenSplit: with no cost signal the ranges are
// an even split, not everything piled into zone 0.
func TestCostRangesZeroTotalIsEvenSplit(t *testing.T) {
	const n = 1000
	for _, p := range []int{1, 2, 4, 7} {
		zones := cutZones(allBodies(n), costRanges(make([]int64, n), p))
		lo, hi := n, 0
		for _, zone := range zones {
			lo, hi = min(lo, len(zone)), max(hi, len(zone))
		}
		if hi-lo > 1 {
			t.Fatalf("p=%d: zone sizes range [%d,%d]", p, lo, hi)
		}
	}
}

// TestCostRangesAllocatesNothing: the per-step cut of a resident session
// reuses the caller's cuts.
func TestCostRangesAllocatesNothing(t *testing.T) {
	const n, p = 20000, 4
	b := phys.Generate(phys.ModelPlummer, n, 1)
	for i := range b.Cost {
		b.Cost[i] = int64(1 + i%13)
	}
	cut := make([]int, p+1)
	if allocs := testing.AllocsPerRun(10, func() { CostRanges(b.Cost, cut) }); allocs != 0 {
		t.Fatalf("CostRanges allocated %.0f times per call, want 0", allocs)
	}
}

// costRanges is CostRanges into a fresh cut array.
func costRanges(cost []int64, p int) []int {
	cut := make([]int, p+1)
	CostRanges(cost, cut)
	return cut
}

// cutZones renders cut positions as zones of index, the way core.Stepper
// hands them to a build: zone w the capped sub-slice index[cut[w]:cut[w+1]].
func cutZones(index []int32, cut []int) [][]int32 {
	zones := make([][]int32, len(cut)-1)
	for w := range zones {
		zones[w] = index[cut[w]:cut[w+1]:cut[w+1]]
	}
	return zones
}
