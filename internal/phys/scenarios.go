package phys

import (
	"math"
	"math/rand"

	"partree/internal/vec"
)

// Parameterized initial-condition generators beyond the classic SPLASH-2
// trio. Uniform-or-Plummer inputs hide load-imbalance pathologies; the
// distributions here are the ones the tree-building literature evaluates
// on because they stress adaptive subdivision depth and partition
// balance: a rotating exponential disk (strong planar anisotropy), two
// clusters on an off-axis collision course (time-evolving bimodality),
// and hierarchical clustering (power-law density contrast at every
// scale). Each generator is a pure function of (n, seed, params), so a
// fixed seed is byte-reproducible through Snapshot.

// DiskParams tunes the disk-galaxy generator. Zero fields select the
// documented defaults.
type DiskParams struct {
	// ScaleLength is the exponential surface-density scale R_d: the disk
	// holds ~26% of its mass inside one scale length. Default 1.
	ScaleLength float64
	// ScaleHeight is the vertical double-exponential scale h. Default
	// 0.1·ScaleLength — a thin disk, the worst case for octree depth
	// because the distribution is two-dimensional at large scales.
	ScaleHeight float64
	// Dispersion is the random velocity fraction added on top of the
	// circular rotation (0.1 = 10% of local v_circ). Default 0.1.
	Dispersion float64
}

func (p DiskParams) withDefaults() DiskParams {
	if p.ScaleLength <= 0 {
		p.ScaleLength = 1
	}
	if p.ScaleHeight <= 0 {
		p.ScaleHeight = 0.1 * p.ScaleLength
	}
	if p.Dispersion <= 0 {
		p.Dispersion = 0.1
	}
	return p
}

// Disk samples an exponential disk galaxy with near-circular rotation:
// surface density Σ(r) ∝ exp(-r/R_d), vertical profile ∝ exp(-|z|/h),
// and tangential velocities set from the enclosed-mass circular speed
// (spherical approximation, G=1) plus isotropic dispersion. Net angular
// momentum points along +z.
func Disk(n int, seed int64, p DiskParams) *Bodies {
	p = p.withDefaults()
	r := rand.New(rand.NewSource(seed))
	b := NewBodies(n)
	mPer := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		// Radius from the cumulative mass profile M(<r) ∝ 1-(1+x)e^-x,
		// x = r/R_d, cut off where u → 1 would give unbounded radii.
		u := math.Min(r.Float64(), diskMassMax)
		rad := p.ScaleLength * diskRadius(u)
		sin, cos := math.Sincos(2 * math.Pi * r.Float64())
		// Double-exponential vertical profile: |z| ~ Exp(h), random sign.
		z := -p.ScaleHeight * math.Log(1-r.Float64())
		if r.Float64() < 0.5 {
			z = -z
		}
		b.Pos[i] = vec.V3{X: rad * cos, Y: rad * sin, Z: z}

		// Circular speed from the enclosed disk mass at this radius: u.
		vc := math.Sqrt(u / math.Max(rad, 1e-6))
		tangent := vec.V3{X: -sin, Y: cos}
		b.Vel[i] = tangent.Scale(vc).Add(isotropic(r).Scale(p.Dispersion * vc * r.Float64()))
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

// CollisionParams tunes the colliding-clusters generator.
type CollisionParams struct {
	// Separation is the initial center-to-center distance along x.
	// Default 6 (the classic twoclusters setup).
	Separation float64
	// Impact is the impact parameter: the perpendicular (y) offset
	// between the approach axes. 0 (the default) is a head-on collision;
	// larger values make the clusters swing past each other, shearing
	// the density field.
	Impact float64
	// Speed is the closing speed along x. Default 0.25.
	Speed float64
}

func (p CollisionParams) withDefaults() CollisionParams {
	if p.Separation <= 0 {
		p.Separation = 6
	}
	if p.Impact < 0 {
		p.Impact = 0 // head-on
	}
	if p.Speed <= 0 {
		p.Speed = 0.25
	}
	return p
}

// Collision places two equal-mass Plummer spheres on a collision course
// with a tunable impact parameter: cluster A starts at (+sep/2, +b/2),
// cluster B at (-sep/2, -b/2), closing along x. The first ⌊n/2⌋ bodies
// belong to cluster A, the rest to B, so diagnostics can track the two
// centroids by index range.
func Collision(n int, seed int64, p CollisionParams) *Bodies {
	p = p.withDefaults()
	offA := vec.V3{X: p.Separation / 2, Y: p.Impact / 2}
	offB := vec.V3{X: -p.Separation / 2, Y: -p.Impact / 2}
	vA := vec.V3{X: -p.Speed / 2}
	vB := vec.V3{X: p.Speed / 2}
	return plummerPair(n, rand.New(rand.NewSource(seed)), offA, vA, offB, vB)
}

// HierarchicalParams tunes the nested-Plummer clustering generator.
type HierarchicalParams struct {
	// Levels is the nesting depth. Default 3.
	Levels int
	// Branch is the number of sub-halos per level. Default 8.
	Branch int
	// Contract is the scale ratio between a halo and its sub-halos
	// (smaller = more contrast). Default 0.3.
	Contract float64
}

func (p HierarchicalParams) withDefaults() HierarchicalParams {
	if p.Levels <= 0 {
		p.Levels = 3
	}
	if p.Branch <= 1 {
		p.Branch = 8
	}
	if p.Contract <= 0 || p.Contract >= 1 {
		p.Contract = 0.3
	}
	return p
}

// Hierarchical samples nested Plummer sub-halos: at each level the body
// budget splits across Branch sub-halos whose centers are themselves
// Plummer-distributed at the current scale, and each sub-halo recurses
// with its scale contracted. The result has power-law density contrast
// at every scale — the hardest case for a cost-blind spatial partition,
// and the distribution hierarchical-clustering evaluations in the
// literature use for exactly that reason.
func Hierarchical(n int, seed int64, p HierarchicalParams) *Bodies {
	p = p.withDefaults()
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
		per := cnt / p.Branch
		rem := cnt % p.Branch
		for s := 0; s < p.Branch; s++ {
			sub := per
			if s < rem {
				sub++
			}
			sc := center.Add(isotropic(r).Scale(plummerRadius(r) * scale))
			place(sub, level-1, sc, scale*p.Contract)
		}
	}
	place(n, p.Levels, vec.V3{}, 1.0)
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
