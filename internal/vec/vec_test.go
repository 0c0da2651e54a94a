package vec

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(a)+math.Abs(b)) }

func TestAddSubRoundTrip(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V3{ax, ay, az}
		b := V3{bx, by, bz}
		r := a.Add(b).Sub(b)
		return almostEq(r.X, a.X) && almostEq(r.Y, a.Y) && almostEq(r.Z, a.Z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleDistributes(t *testing.T) {
	a := V3{1, -2, 3}
	b := V3{4, 5, -6}
	l := a.Add(b).Scale(2.5)
	r := a.Scale(2.5).Add(b.Scale(2.5))
	if l != r {
		t.Fatalf("scale does not distribute: %v vs %v", l, r)
	}
}

func TestMulAdd(t *testing.T) {
	a := V3{1, 2, 3}
	b := V3{10, 20, 30}
	got := a.MulAdd(0.5, b)
	want := V3{6, 12, 18}
	if got != want {
		t.Fatalf("MulAdd = %v, want %v", got, want)
	}
}

func TestLenDist(t *testing.T) {
	a := V3{3, 4, 0}
	if a.Len() != 5 {
		t.Fatalf("Len = %v, want 5", a.Len())
	}
	if d := a.Dist(V3{0, 0, 0}); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d2 := a.Dist2(V3{3, 4, 12}); d2 != 144 {
		t.Fatalf("Dist2 = %v, want 144", d2)
	}
}

func TestMinMaxComponentwise(t *testing.T) {
	a := V3{1, 5, -2}
	b := V3{0, 9, -1}
	if got := a.Min(b); got != (V3{0, 5, -2}) {
		t.Fatalf("Min = %v", got)
	}
	if got := a.Max(b); got != (V3{1, 9, -1}) {
		t.Fatalf("Max = %v", got)
	}
	if mc := a.MaxComponent(); mc != 5 {
		t.Fatalf("MaxComponent = %v", mc)
	}
}

func TestIsFinite(t *testing.T) {
	if !(V3{1, 2, 3}).IsFinite() {
		t.Fatal("finite vector reported non-finite")
	}
	for _, bad := range []V3{
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{0, 0, math.Inf(-1)},
	} {
		if bad.IsFinite() {
			t.Fatalf("%v reported finite", bad)
		}
	}
}
