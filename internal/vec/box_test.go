package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxOfContainsAll(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts := make([]V3, 500)
	for i := range pts {
		pts[i] = V3{r.NormFloat64(), r.NormFloat64() * 10, r.NormFloat64() * 0.1}
	}
	b := BoxOf(len(pts), func(i int) V3 { return pts[i] })
	for i, p := range pts {
		if !b.Contains(p) {
			t.Fatalf("point %d %v outside its bounding box", i, p)
		}
	}
}

func TestBoxDistZeroInside(t *testing.T) {
	b := Box{Lo: V3{-1, -1, -1}, Hi: V3{1, 1, 1}}
	if d := b.Dist(V3{0.5, -0.5, 0}); d != 0 {
		t.Fatalf("inside point distance %g", d)
	}
	if d := b.Dist(V3{1, 1, 1}); d != 0 {
		t.Fatalf("corner point distance %g", d)
	}
}

func TestBoxDistAxisAndCorner(t *testing.T) {
	b := Box{Lo: V3{0, 0, 0}, Hi: V3{2, 2, 2}}
	if d := b.Dist(V3{5, 1, 1}); d != 3 {
		t.Fatalf("face distance %g, want 3", d)
	}
	want := math.Sqrt(3)
	if d := b.Dist(V3{3, 3, 3}); math.Abs(d-want) > 1e-12 {
		t.Fatalf("corner distance %g, want %g", d, want)
	}
}

// Property: Dist is a lower bound on the distance to any point inside the
// box — the exact guarantee the locally-essential-tree criterion relies on.
func TestBoxDistLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := Box{
			Lo: V3{r.NormFloat64(), r.NormFloat64(), r.NormFloat64()},
		}
		b.Hi = b.Lo.Add(V3{r.Float64() * 5, r.Float64() * 5, r.Float64() * 5})
		q := V3{r.NormFloat64() * 10, r.NormFloat64() * 10, r.NormFloat64() * 10}
		dmin := b.Dist(q)
		for i := 0; i < 50; i++ {
			inside := V3{
				b.Lo.X + r.Float64()*(b.Hi.X-b.Lo.X),
				b.Lo.Y + r.Float64()*(b.Hi.Y-b.Lo.Y),
				b.Lo.Z + r.Float64()*(b.Hi.Z-b.Lo.Z),
			}
			if inside.Dist(q) < dmin-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBoxSplitCovers(t *testing.T) {
	b := Box{Lo: V3{0, 0, 0}, Hi: V3{4, 2, 2}}
	if b.LongestAxis() != 0 {
		t.Fatalf("longest axis %d, want 0", b.LongestAxis())
	}
	lo, hi := b.Split(0, 1.5)
	if lo.Hi.X != 1.5 || hi.Lo.X != 1.5 {
		t.Fatalf("split wrong: %+v %+v", lo, hi)
	}
	// Every point of b is in lo or hi.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := V3{r.Float64() * 4, r.Float64() * 2, r.Float64() * 2}
		if !lo.Contains(p) && !hi.Contains(p) {
			t.Fatalf("point %v lost by split", p)
		}
	}
}
