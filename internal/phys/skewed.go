package phys

import (
	"math"
	"math/rand"

	"partree/internal/vec"
)

// The two models beyond the classic SPLASH-2 trio. Uniform-or-Plummer
// inputs hide load-imbalance pathologies; these are the distributions
// the tree-building literature evaluates on because they stress adaptive
// subdivision depth and partition balance: a rotating exponential disk
// (strong planar anisotropy) and hierarchical clustering (power-law
// density contrast at every scale). Each is a pure function of
// (n, seed), reached through Generate.

// The disk's shape, in model units: the exponential scale length R_d
// (the disk holds ~26% of its mass inside it), the vertical scale
// height h — a thin disk, the worst case for octree depth because the
// distribution is two-dimensional at large scales — and the random
// velocity fraction added on top of the circular rotation.
const (
	diskScaleLength = 1
	diskScaleHeight = 0.1 * diskScaleLength
	diskDispersion  = 0.1
)

// disk samples an exponential disk galaxy with near-circular rotation:
// surface density Σ(r) ∝ exp(-r/R_d), vertical profile ∝ exp(-|z|/h),
// and tangential velocities set from the enclosed-mass circular speed
// (spherical approximation, G=1) plus isotropic dispersion. Net angular
// momentum points along +z.
func disk(n int, seed int64) *Bodies {
	r := rand.New(rand.NewSource(seed))
	b := NewBodies(n)
	mPer := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		// Radius from the cumulative mass profile M(<r) ∝ 1-(1+x)e^-x,
		// x = r/R_d, cut off where u → 1 would give unbounded radii.
		u := math.Min(r.Float64(), diskMassMax)
		rad := diskScaleLength * diskRadius(u)
		sin, cos := math.Sincos(2 * math.Pi * r.Float64())
		// Double-exponential vertical profile: |z| ~ Exp(h), random sign.
		z := -diskScaleHeight * math.Log(1-r.Float64())
		if r.Float64() < 0.5 {
			z = -z
		}
		b.Pos[i] = vec.V3{X: rad * cos, Y: rad * sin, Z: z}

		// Circular speed from the enclosed disk mass at this radius: u.
		vc := math.Sqrt(u / math.Max(rad, 1e-6))
		tangent := vec.V3{X: -sin, Y: cos}
		b.Vel[i] = tangent.Scale(vc).Add(isotropic(r).Scale(diskDispersion * vc * r.Float64()))
		b.Mass[i] = mPer
		b.Cost[i] = 1
	}
	return b
}

// diskMass is the normalized enclosed-mass profile of an exponential
// disk, M(<x)/M_tot = 1-(1+x)e^-x for x = r/R_d, written so that its
// rounding error scales with x (the textbook form is 0 below x ≈ 1e-8).
func diskMass(x float64) float64 { return -math.Expm1(-x) - x*math.Exp(-x) }

// The disk is cut off at diskRadiusMax scale lengths, which hold the
// mass fraction diskMassMax.
const diskRadiusMax = 30

var diskMassMax = diskMass(diskRadiusMax)

// diskRadius inverts diskMass, clamped to x ≤ diskRadiusMax. It solves
// x - ln(1+x) = -ln(1-u) =: L, which fixes x to full relative precision
// where M(x) = u cannot (M is flat to an ulp long before the cut-off),
// by Halley's iteration from a start within 1.2% of the root — the
// series of x in s = √(2L) near the centre, two rounds of
// x ← L + ln(1+x) outside — so two cubic steps reach rounding: five
// logarithms a body against a bisection's sixty Exp (DESIGN §2.1).
func diskRadius(u float64) float64 {
	if u >= diskMassMax {
		return diskRadiusMax
	}
	if !(u > 0) {
		return 0
	}
	l := -math.Log1p(-u)
	s := math.Sqrt(2 * l)
	x := s * (1 + s*(1.0/3+s*(1.0/36-s*(1.0/270))))
	if s < 1e-3 {
		return x // exact to rounding (next term s⁵/4320) where x - ln(1+x) cancels
	}
	if l >= 1 {
		x = l + math.Log(1+l+math.Log(1+l+s))
	}
	for k := 0; k < 8; k++ {
		g := x - math.Log1p(x) - l
		dx := 2 * g * x * (1 + x) / (2*x*x - g)
		x -= dx
		if math.Abs(dx) <= 1e-6*x {
			break
		}
	}
	return math.Min(x, diskRadiusMax)
}

// The hierarchy's shape: nesting depth, sub-halos per level, and the
// scale ratio between a halo and its sub-halos (smaller = more
// contrast).
const (
	hierLevels   = 3
	hierBranch   = 8
	hierContract = 0.3
)

// hierarchical samples nested Plummer sub-halos: at each level the body
// budget splits across hierBranch sub-halos whose centers are themselves
// Plummer-distributed at the current scale, and each sub-halo recurses
// with its scale contracted. The result has power-law density contrast
// at every scale — the hardest case for a cost-blind spatial partition,
// and the distribution hierarchical-clustering evaluations in the
// literature use for exactly that reason.
func hierarchical(n int, seed int64) *Bodies {
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
				b.Pos[i] = center.Add(isotropic(r).Scale(plummerRadius(r) * scale))
				b.Vel[i] = isotropic(r).Scale(0.05 * math.Sqrt(scale) * r.Float64())
				b.Mass[i] = mPer
				b.Cost[i] = 1
				i++
			}
			return
		}
		per := cnt / hierBranch
		rem := cnt % hierBranch
		for s := 0; s < hierBranch; s++ {
			sub := per
			if s < rem {
				sub++
			}
			sc := center.Add(isotropic(r).Scale(plummerRadius(r) * scale))
			place(sub, level-1, sc, scale*hierContract)
		}
	}
	place(n, hierLevels, vec.V3{}, 1.0)
	return b
}

// plummerRadius samples a radius from the Plummer cumulative mass
// profile at scale radius 1, clamped like the full generator.
func plummerRadius(r *rand.Rand) float64 {
	x := r.Float64()
	if x > 0.999 {
		x = 0.999
	}
	return 1 / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
}
