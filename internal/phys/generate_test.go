package phys

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"partree/internal/vec"
)

// The ref* functions below are the sampling recipes as they stood before
// the generator kernels were rewritten (PR 17), copied verbatim: they
// define the bits of every pinned body stream except the disk's.

func refIsotropic(r *rand.Rand) vec.V3 {
	z := 2*r.Float64() - 1
	t := 2 * math.Pi * r.Float64()
	s := math.Sqrt(1 - z*z)
	return vec.V3{X: s * math.Cos(t), Y: s * math.Sin(t), Z: z}
}

func refPlummer(n int, r *rand.Rand, center, drift vec.V3, mtot float64) *Bodies {
	b := NewBodies(n)
	mPer := mtot / float64(n)
	for i := 0; i < n; i++ {
		x := r.Float64()
		if x > 0.999 {
			x = 0.999
		}
		rad := 1 / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		b.Pos[i] = center.Add(refIsotropic(r).Scale(rad))

		var q float64
		for {
			q = r.Float64()
			g := q * q * math.Pow(1-q*q, 3.5)
			if 0.1*r.Float64() < g {
				break
			}
		}
		vesc := math.Sqrt(2) * math.Pow(1+rad*rad, -0.25) * math.Sqrt(mtot)
		b.Vel[i] = drift.Add(refIsotropic(r).Scale(q * vesc))
		b.Mass[i] = mPer
		b.Cost[i] = 1
	}
	return b
}

func refUniformCube(n int, r *rand.Rand) *Bodies {
	b := NewBodies(n)
	mPer := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		b.Pos[i] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
		b.Vel[i] = refIsotropic(r).Scale(0.05 * r.Float64())
		b.Mass[i] = mPer
		b.Cost[i] = 1
	}
	return b
}

func refConcat(n, n1 int, a, c *Bodies) *Bodies {
	b := NewBodies(n)
	copy(b.Pos, a.Pos)
	copy(b.Pos[n1:], c.Pos)
	copy(b.Vel, a.Vel)
	copy(b.Vel[n1:], c.Vel)
	copy(b.Mass, a.Mass)
	copy(b.Mass[n1:], c.Mass)
	copy(b.Cost, a.Cost)
	copy(b.Cost[n1:], c.Cost)
	return b
}

func refTwoClusters(n int, r *rand.Rand) *Bodies {
	n1 := n / 2
	n2 := n - n1
	sep := vec.V3{X: 6}
	vrel := vec.V3{X: -0.25, Y: 0.05}
	a := refPlummer(n1, r, sep.Scale(0.5), vrel.Scale(0.5), 0.5)
	c := refPlummer(n2, r, sep.Scale(-0.5), vrel.Scale(-0.5), 0.5)
	return refConcat(n, n1, a, c)
}

func refPlummerRadius(r *rand.Rand) float64 {
	x := r.Float64()
	if x > 0.999 {
		x = 0.999
	}
	return 1 / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
}

func refHierarchical(n int, seed int64) *Bodies {
	const levels, branch, contract = 3, 8, 0.3
	r := rand.New(rand.NewSource(seed))
	b := NewBodies(n)
	mPer := 1.0 / float64(n)
	i := 0
	var place func(cnt, level int, center vec.V3, scale float64)
	place = func(cnt, level int, center vec.V3, scale float64) {
		if cnt <= 0 {
			return
		}
		if level == 0 {
			for k := 0; k < cnt; k++ {
				b.Pos[i] = center.Add(refIsotropic(r).Scale(refPlummerRadius(r) * scale))
				b.Vel[i] = refIsotropic(r).Scale(0.05 * math.Sqrt(scale) * r.Float64())
				b.Mass[i] = mPer
				b.Cost[i] = 1
				i++
			}
			return
		}
		per := cnt / branch
		rem := cnt % branch
		for s := 0; s < branch; s++ {
			sub := per
			if s < rem {
				sub++
			}
			sc := center.Add(refIsotropic(r).Scale(refPlummerRadius(r) * scale))
			place(sub, level-1, sc, scale*contract)
		}
	}
	place(n, levels, vec.V3{}, 1.0)
	return b
}

// refDiskRadius is the sixty-step bisection diskRadius replaced, on the
// mass profile as it was then written.
func refDiskRadius(u float64) float64 {
	mass := func(x float64) float64 { return 1 - (1+x)*math.Exp(-x) }
	if u >= mass(30) {
		return 30
	}
	lo, hi := 0.0, 30.0
	for k := 0; k < 60; k++ {
		mid := (lo + hi) / 2
		if mass(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// sameBits reports the first body at which two systems differ in any
// bit of position, velocity, mass or cost.
func sameBits(a, b *Bodies) error {
	if a.N() != b.N() {
		return fmt.Errorf("%d bodies against %d", a.N(), b.N())
	}
	v := func(p vec.V3) [3]uint64 {
		return [3]uint64{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z)}
	}
	for i := range a.Pos {
		if v(a.Pos[i]) != v(b.Pos[i]) || v(a.Vel[i]) != v(b.Vel[i]) ||
			math.Float64bits(a.Mass[i]) != math.Float64bits(b.Mass[i]) || a.Cost[i] != b.Cost[i] {
			return fmt.Errorf("body %d: pos %v vel %v mass %g, reference pos %v vel %v mass %g",
				i, a.Pos[i], a.Vel[i], a.Mass[i], b.Pos[i], b.Vel[i], b.Mass[i])
		}
	}
	return nil
}

// TestGenerateMatchesReferenceRecipe holds every generator but the disk
// to the bits of its reference recipe: harness, CLI and snapshot goldens
// and every EXPERIMENTS.md figure are computed from these streams.
func TestGenerateMatchesReferenceRecipe(t *testing.T) {
	src := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	recipes := []struct {
		name     string
		got, ref func(n int, seed int64) *Bodies
	}{
		{"plummer",
			func(n int, seed int64) *Bodies { return Generate(ModelPlummer, n, seed) },
			func(n int, seed int64) *Bodies { return refPlummer(n, src(seed), vec.V3{}, vec.V3{}, 1.0) }},
		{"uniform",
			func(n int, seed int64) *Bodies { return Generate(ModelUniform, n, seed) },
			func(n int, seed int64) *Bodies { return refUniformCube(n, src(seed)) }},
		{"twoclusters",
			func(n int, seed int64) *Bodies { return Generate(ModelTwoClusters, n, seed) },
			func(n int, seed int64) *Bodies { return refTwoClusters(n, src(seed)) }},
		{"hierarchical",
			func(n int, seed int64) *Bodies { return Generate(ModelHierarchical, n, seed) },
			func(n int, seed int64) *Bodies { return refHierarchical(n, seed) }},
	}
	for _, rc := range recipes {
		for _, n := range []int{1, 2, 513, 20000} {
			for seed := int64(0); seed < 32; seed++ {
				if err := sameBits(rc.got(n, seed), rc.ref(n, seed)); err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", rc.name, n, seed, err)
				}
			}
		}
	}
}

// TestSpeedFilterMatchesPow holds the filtered rejection test to the
// math.Pow comparison it stands for: on the sampler's own inputs, where
// the cheap evaluation decides, and on t placed within a few ulps of
// g(q), where it must hand over to math.Pow.
func TestSpeedFilterMatchesPow(t *testing.T) {
	pow := func(q float64) float64 { return q * q * math.Pow(1-q*q, 3.5) }
	check := func(q, tt float64) {
		t.Helper()
		if got, want := speedAccepted(q, tt), tt < pow(q); got != want {
			t.Fatalf("speedAccepted(%v, %v) = %v, math.Pow test says %v", q, tt, got, want)
		}
	}
	r := rand.New(rand.NewSource(17))
	qs := []float64{0, 0x1p-53, 1e-200, 1e-8, 0.5, math.Sqrt(2.0 / 9), 1 - 0x1p-53, 1 - 0x1p-30}
	for len(qs) < 1000000 {
		qs = append(qs, r.Float64())
	}
	worst := 0.0
	for i, q := range qs {
		check(q, 0.1*r.Float64())

		s := 1 - q*q
		fast, g := q*q*(s*s*s*math.Sqrt(s)), pow(q)
		if g == 0 {
			continue
		}
		// The filter is sound while the two evaluations of g agree to
		// well inside its 1e-12 band.
		worst = math.Max(worst, math.Abs(fast-g)/g)

		// Adversarial t, on the listed q and every eighth random one: g
		// itself and its neighbours out to 64 ulps on both sides, all
		// inside the band, so math.Pow decides.
		if i >= 8 && i%8 != 0 {
			continue
		}
		k := float64(1 + r.Intn(64))
		for _, tt := range []float64{g, g * (1 + k*0x1p-52), g * (1 - k*0x1p-52),
			math.Nextafter(g, 1), math.Nextafter(g, 0), fast} {
			if math.Abs(tt-fast) > 1e-12*fast {
				t.Fatalf("q=%v: t=%v is outside the fallback band around %v", q, tt, fast)
			}
			check(q, tt)
		}
	}
	if worst > 1e-13 {
		t.Fatalf("cheap and math.Pow evaluations of g differ by %.3g relative; the 1e-12 band needs < 1e-13", worst)
	}
}

// checkDiskRadius asserts what every diskRadius(u) must satisfy and
// returns it.
func checkDiskRadius(t *testing.T, u float64) float64 {
	t.Helper()
	x := diskRadius(u)
	if math.IsNaN(x) || x < 0 || x > diskRadiusMax {
		t.Fatalf("diskRadius(%v) = %v, outside [0, %d]", u, x, diskRadiusMax)
	}
	switch {
	case math.IsNaN(u) || u <= 0:
		if x != 0 {
			t.Fatalf("diskRadius(%v) = %v, want 0", u, x)
		}
	case u >= diskMassMax:
		if x != diskRadiusMax {
			t.Fatalf("diskRadius(%v) = %v, want the clamp %d", u, x, diskRadiusMax)
		}
	default:
		// A few ulps of 1 is the best a float64 diskMass can resolve.
		if res := math.Abs(diskMass(x) - u); res > 8*0x1p-53 {
			t.Fatalf("diskRadius(%v) = %v: residual %.3g = %.1f·2⁻⁵³", u, x, res, res*0x1p53)
		}
	}
	return x
}

// TestDiskRadiusInvertsMass pins the Halley inversion: it inverts the
// mass profile to the profile's own resolution, agrees with the
// bisection it replaced wherever that resolved the radius, and keeps the
// end points exact.
func TestDiskRadiusInvertsMass(t *testing.T) {
	for _, u := range []float64{0, math.Copysign(0, -1), -1, math.NaN(), math.Inf(-1)} {
		checkDiskRadius(t, u)
	}
	for _, u := range []float64{diskMassMax, math.Nextafter(diskMassMax, 2), 1, 2, math.Inf(1)} {
		checkDiskRadius(t, u)
	}
	if x := checkDiskRadius(t, math.Nextafter(diskMassMax, 0)); x < diskRadiusMax-1e-3 {
		t.Fatalf("just inside the clamp: x = %v", x)
	}
	for _, u := range []float64{5e-324, 1e-300, 0x1p-53, 1e-12} {
		// Near the centre M(x) = x²/2 to first order.
		if x := checkDiskRadius(t, u); math.Abs(x-math.Sqrt(2*u)) > 1e-3*x {
			t.Fatalf("diskRadius(%v) = %v, want ≈ √(2u) = %v", u, x, math.Sqrt(2*u))
		}
	}
	if m := diskMass(1e-9); math.Abs(m-0.5e-18) > 1e-6*0.5e-18 {
		t.Fatalf("diskMass(1e-9) = %v, want x²/2 = 5e-19 (1-(1+x)e^-x cancels to 0 there)", m)
	}

	// Against the old bisection. It solved 1-(1+x)e^-x = u in float64,
	// which fixes x only to the few ulps of 1 that expression resolves
	// in mass — δx = δM/M'(x) with M' = x·e^-x, wide at both ends of
	// the profile — so that, plus 1e-12 relative, is the agreement due.
	r := rand.New(rand.NewSource(5))
	us := []float64{1e-6, 1e-5, 1e-3, 0.5, 0.999, 1 - 1e-6, 1 - 1e-9, math.Nextafter(diskMassMax, 0)}
	for len(us) < 200000 {
		us = append(us, 1e-6+r.Float64()*(diskMassMax-1e-6))
	}
	for _, u := range us {
		x, ref := checkDiskRadius(t, u), refDiskRadius(u)
		if tol := 1e-12*ref + 16*0x1p-53/(ref*math.Exp(-ref)); math.Abs(x-ref) > tol {
			t.Fatalf("diskRadius(%v) = %v, bisection %v: apart by %.3g, tolerance %.3g", u, x, ref, math.Abs(x-ref), tol)
		}
	}

	// Monotone, on a grid over the whole range.
	prev := 0.0
	for i := 0; i <= 1000000; i++ {
		x := checkDiskRadius(t, float64(i)/1000000)
		if x < prev {
			t.Fatalf("diskRadius(%v) = %v < diskRadius of the grid point before = %v", float64(i)/1000000, x, prev)
		}
		prev = x
	}
}

// FuzzDiskRadius drives the inversion with arbitrary bit patterns and
// checks monotonicity between u and u plus any step the mass profile
// can resolve (32 ulps of 1: twice the residual bound on each side).
func FuzzDiskRadius(f *testing.F) {
	for _, u := range []float64{0, 0x1p-53, 1e-9, 1e-6, 0.01, 0.26, 0.5, 0.63, 0.64, 0.9, 0.999999, diskMassMax, 1, -3, math.NaN()} {
		f.Add(u, 0.001)
	}
	f.Fuzz(func(t *testing.T, u, du float64) {
		x := checkDiskRadius(t, u)
		if u2 := u + math.Abs(du); u >= 0 && u2 >= u+32*0x1p-53 {
			if x2 := checkDiskRadius(t, u2); x2 < x {
				t.Fatalf("diskRadius(%v) = %v > diskRadius(%v) = %v", u, x, u2, x2)
			}
		}
	})
}
