package phys

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"partree/internal/vec"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, m := range []Model{ModelPlummer, ModelUniform, ModelTwoClusters} {
		a := Generate(m, 500, 7)
		b := Generate(m, 500, 7)
		for i := range a.Pos {
			if a.Pos[i] != b.Pos[i] || a.Vel[i] != b.Vel[i] {
				t.Fatalf("%v: generation not deterministic at body %d", m, i)
			}
		}
		c := Generate(m, 500, 8)
		same := true
		for i := range a.Pos {
			if a.Pos[i] != c.Pos[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: different seeds produced identical systems", m)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, m := range []Model{ModelPlummer, ModelUniform, ModelTwoClusters} {
		b := Generate(m, 2000, 1)
		if err := b.Validate(); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := b.TotalMass(); math.Abs(got-1) > 1e-9 {
			t.Fatalf("%v: total mass = %g, want 1", m, got)
		}
	}
}

func TestPlummerCentrallyCondensed(t *testing.T) {
	b := Generate(ModelPlummer, 20000, 3)
	com := b.CenterOfMass()
	inner, outer := 0, 0
	for i := range b.Pos {
		if b.Pos[i].Dist(com) < 1 {
			inner++
		} else {
			outer++
		}
	}
	// A Plummer sphere holds ~35% of its mass inside one scale radius;
	// uniform-in-bounding-cube would hold far less. Loose bound: >20%.
	if frac := float64(inner) / float64(b.N()); frac < 0.20 {
		t.Fatalf("inner-mass fraction %.3f too small for a Plummer sphere", frac)
	}
}

func TestPlummerNearVirial(t *testing.T) {
	b := Generate(ModelPlummer, 4000, 11)
	ke := b.KineticEnergy()
	pe := b.PotentialEnergy(0)
	// Virial equilibrium: 2KE + PE = 0. Sampling noise allows slack.
	q := -2 * ke / pe
	if q < 0.6 || q > 1.4 {
		t.Fatalf("virial ratio -2KE/PE = %.3f, want ≈1", q)
	}
}

func TestUniformStaysInUnitCube(t *testing.T) {
	b := Generate(ModelUniform, 5000, 5)
	for i, p := range b.Pos {
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 || p.Z < 0 || p.Z >= 1 {
			t.Fatalf("body %d at %v escapes the unit cube", i, p)
		}
	}
}

func TestTwoClustersSeparated(t *testing.T) {
	b := Generate(ModelTwoClusters, 4000, 9)
	left, right := 0, 0
	for _, p := range b.Pos {
		if p.X > 1 {
			right++
		}
		if p.X < -1 {
			left++
		}
	}
	if left < b.N()/4 || right < b.N()/4 {
		t.Fatalf("clusters not separated: left=%d right=%d of %d", left, right, b.N())
	}
}

func TestKickDrift(t *testing.T) {
	b := NewBodies(2)
	b.Mass[0], b.Mass[1] = 1, 1
	b.Acc[0].X = 2
	b.Vel[1].Y = 3
	b.Kick(0, 2, 1.0) // half-kick: v += a*0.5
	if b.Vel[0].X != 1 {
		t.Fatalf("kick: vel = %v, want x=1", b.Vel[0])
	}
	b.Drift(0, 2, 2.0)
	if b.Pos[0].X != 2 || b.Pos[1].Y != 6 {
		t.Fatalf("drift: pos = %v %v", b.Pos[0], b.Pos[1])
	}
}

func TestKickDriftRangeRespected(t *testing.T) {
	b := NewBodies(4)
	for i := range b.Acc {
		b.Acc[i].X = 1
		b.Vel[i].X = 1
	}
	b.Kick(1, 3, 2.0)
	b.Drift(1, 3, 1.0)
	if b.Vel[0].X != 1 || b.Vel[3].X != 1 || b.Pos[0].X != 0 || b.Pos[3].X != 0 {
		t.Fatal("kick/drift touched bodies outside the range")
	}
	if b.Vel[1].X != 2 || b.Pos[2].X != 2 {
		t.Fatal("kick/drift missed bodies inside the range")
	}
}

// TestAdvance: the update phase moves exactly the listed bodies, velocity
// first, so the new velocity carries the position.
func TestAdvance(t *testing.T) {
	b := NewBodies(3)
	for i := range b.Acc {
		b.Acc[i].X = 2
		b.Vel[i].X = 1
	}
	b.Advance([]int32{2, 0}, 0.5)
	if b.Vel[0].X != 2 || b.Pos[0].X != 1 || b.Vel[2].X != 2 || b.Pos[2].X != 1 {
		t.Fatalf("advanced bodies: vel %v pos %v, want v=2 x=1 for bodies 0 and 2", b.Vel, b.Pos)
	}
	if b.Vel[1].X != 1 || b.Pos[1].X != 0 {
		t.Fatal("advance touched a body outside the list")
	}
}

func TestEnergyTwoBody(t *testing.T) {
	b := NewBodies(2)
	b.Mass[0], b.Mass[1] = 2, 3
	b.Pos[1].X = 2
	b.Vel[0].Y = 1
	ke := b.KineticEnergy()
	if ke != 1 { // ½·2·1²
		t.Fatalf("KE = %g, want 1", ke)
	}
	pe := b.PotentialEnergy(0)
	if pe != -3 { // -2·3/2
		t.Fatalf("PE = %g, want -3", pe)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Generate(ModelUniform, 10, 1)
	c := a.Clone()
	c.Pos[0].X = 99
	if a.Pos[0].X == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := Generate(ModelUniform, 10, 1)
	b.Pos[3].X = math.NaN()
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted NaN position")
	}
	b = Generate(ModelUniform, 10, 1)
	b.Mass[2] = -1
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted negative mass")
	}
	b = Generate(ModelUniform, 10, 1)
	b.Vel = b.Vel[:5]
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted diverging slice lengths")
	}
}

func TestMomentumNearZero(t *testing.T) {
	b := Generate(ModelPlummer, 10000, 2)
	p := b.Momentum()
	// Drift-free Plummer sphere: momentum is sampling noise ~ m*v/sqrt(N).
	if p.Len() > 0.05 {
		t.Fatalf("net momentum %v too large", p)
	}
}

// refBounds is Bounds written with math.Min/math.Max, the form
// vec.BoundingCube had before its comparisons became plain < and >.
func refBounds(b *Bodies, margin float64) vec.Cube {
	lo, hi := b.Pos[0], b.Pos[0]
	for _, p := range b.Pos[1:] {
		lo = vec.V3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = vec.V3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	size := math.Max(hi.X-lo.X, math.Max(hi.Y-lo.Y, hi.Z-lo.Z)) * (1 + margin)
	if size <= 0 {
		size = 1
	}
	return vec.Cube{Center: lo.Add(hi).Scale(0.5), Size: size}
}

// TestBoundsMatchesMathMinMax pins the plain-comparison bounds pass to
// the math.Min/math.Max one: bit-equal on every model's finite
// positions. Where an axis holds only zeros of both signs the two may
// pick a different sign for the centre's zero, which compares equal and
// which no consumer can tell apart; the size is bit-equal there too.
func TestBoundsMatchesMathMinMax(t *testing.T) {
	bits := func(c vec.Cube) [4]uint64 {
		return [4]uint64{math.Float64bits(c.Center.X), math.Float64bits(c.Center.Y),
			math.Float64bits(c.Center.Z), math.Float64bits(c.Size)}
	}
	for _, m := range Models() {
		for _, n := range []int{1, 2, 1000, 20000} {
			b := Generate(m, n, 3)
			if got, want := b.Bounds(1e-4), refBounds(b, 1e-4); bits(got) != bits(want) {
				t.Fatalf("%v n=%d: Bounds = %v, math.Min/Max reference = %v", m, n, got, want)
			}
		}
	}

	negZero := math.Copysign(0, -1)
	zeros := NewBodies(3)
	zeros.Pos[0] = vec.V3{X: 0, Y: negZero, Z: 1.5}
	zeros.Pos[1] = vec.V3{X: negZero, Y: 0, Z: 1.5}
	zeros.Pos[2] = vec.V3{X: 0, Y: negZero, Z: 1.5}
	got, want := zeros.Bounds(1e-4), refBounds(zeros, 1e-4)
	if got.Center != want.Center || math.Float64bits(got.Size) != math.Float64bits(want.Size) {
		t.Fatalf("signed zeros: Bounds = %v, reference = %v", got, want)
	}
	if got.Size != 1 {
		t.Fatalf("coincident bodies: Size = %g, want the fallback 1", got.Size)
	}

	spread := NewBodies(3)
	spread.Pos[0] = vec.V3{X: negZero, Y: 2, Z: -1}
	spread.Pos[1] = vec.V3{X: 0, Y: 2, Z: -3}
	spread.Pos[2] = vec.V3{X: 1, Y: negZero, Z: 0}
	if got, want := spread.Bounds(1e-4), refBounds(spread, 1e-4); bits(got) != bits(want) {
		t.Fatalf("zeros among spread bodies: Bounds = %v, reference = %v", got, want)
	}
}

// TestPermuteMovesEveryColumnWithItsBody: after any permutation each slot
// holds, in every column, the values one generated body had; ID names
// that body, so indexing the generated set by ID round-trips to the
// generator order; the set still validates; and a second Permute composes
// with the first.
func TestPermuteMovesEveryColumnWithItsBody(t *testing.T) {
	const n = 1000
	orig := Generate(ModelPlummer, n, 5)
	for i := range orig.Cost {
		orig.Acc[i] = vec.V3{X: float64(i), Y: -float64(i), Z: 0.5}
		orig.Cost[i] = int64(3*i + 1)
	}
	b := orig.Clone()
	rng := rand.New(rand.NewSource(9))
	sameBodies := func(what string) {
		t.Helper()
		if err := b.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for j, id := range b.ID {
			if b.Pos[j] != orig.Pos[id] || b.Vel[j] != orig.Vel[id] || b.Acc[j] != orig.Acc[id] ||
				b.Mass[j] != orig.Mass[id] || b.Cost[j] != orig.Cost[id] {
				t.Fatalf("%s: slot %d (ID %d) does not hold generated body %d in every column", what, j, id, id)
			}
		}
	}
	sameBodies("unpermuted")
	first := rng.Perm(n)
	order := make([]int32, n)
	for j, i := range first {
		order[j] = int32(i)
	}
	pos := b.Pos
	b.Permute(order)
	sameBodies("one Permute")
	if &pos[0] != &b.Pos[0] {
		t.Fatal("Permute replaced the Pos column instead of reordering it in place")
	}
	for j := range order {
		if b.ID[j] != order[j] {
			t.Fatalf("slot %d: ID %d, want order[%d] = %d", j, b.ID[j], j, order[j])
		}
	}
	second := rng.Perm(n)
	for j, i := range second {
		order[j] = int32(i)
	}
	b.Permute(order)
	sameBodies("two Permutes")
	for j := range order {
		if want := int32(first[second[j]]); b.ID[j] != want {
			t.Fatalf("slot %d: ID %d, want first[second[%d]] = %d", j, b.ID[j], j, want)
		}
	}
}

// TestPermuteMatchesGather holds the in-place cycle walk to the gather it
// replaced — slot j of every column takes slot order[j] of a copy — on
// random permutations, the identity and one n-cycle, and to at most one
// allocation (its marks).
func TestPermuteMatchesGather(t *testing.T) {
	const n = 777
	orig := Generate(ModelPlummer, n, 3)
	for i := range orig.Cost {
		orig.Acc[i] = vec.V3{X: float64(i), Y: 1, Z: -float64(i)}
		orig.Cost[i] = int64(7*i + 2)
	}
	rng := rand.New(rand.NewSource(4))
	orders := map[string][]int32{"identity": make([]int32, n), "one n-cycle": make([]int32, n)}
	for j := range n {
		orders["identity"][j] = int32(j)
		orders["one n-cycle"][j] = int32((j + 1) % n)
	}
	for k := range 3 {
		order := make([]int32, n)
		for j, i := range rng.Perm(n) {
			order[j] = int32(i)
		}
		orders[string(rune('a'+k))+": random"] = order
	}
	for name, order := range orders {
		b := orig.Clone()
		b.Permute(order)
		for j, i := range order {
			if b.Pos[j] != orig.Pos[i] || b.Vel[j] != orig.Vel[i] || b.Acc[j] != orig.Acc[i] ||
				b.Mass[j] != orig.Mass[i] || b.Cost[j] != orig.Cost[i] || b.ID[j] != orig.ID[i] {
				t.Fatalf("%s: slot %d does not hold what slot %d held", name, j, i)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { b.Permute(order) }); allocs > 1 {
			t.Fatalf("%s: Permute made %v allocations, want at most 1", name, allocs)
		}
	}
}

// TestBytesChargesEveryColumn holds Bytes to the element size of every
// per-body slice in Bodies, so a column added to the struct fails here
// until Bytes charges it too.
func TestBytesChargesEveryColumn(t *testing.T) {
	const n = 1000
	b := NewBodies(n)
	v := reflect.ValueOf(b).Elem()
	var want int64
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			t.Fatalf("field %s is a %s, not a per-body slice", v.Type().Field(i).Name, f.Kind())
		}
		if f.Len() != n {
			t.Fatalf("field %s holds %d entries for %d bodies", v.Type().Field(i).Name, f.Len(), n)
		}
		want += int64(f.Len()) * int64(f.Type().Elem().Size())
	}
	if got := b.Bytes(); got != want {
		t.Fatalf("Bytes() = %d, want %d (the columns' element sizes × %d)", got, want, n)
	}
	if got := (*Bodies)(nil).Bytes(); got != 0 {
		t.Fatalf("nil Bytes() = %d, want 0", got)
	}
}
