package phys

import (
	"math"
	"math/rand"

	"partree/internal/vec"
)

// Model selects an initial mass distribution.
type Model int

const (
	// ModelPlummer is the Plummer (1911) sphere the SPLASH-2 BARNES code
	// generates: strongly centrally condensed, which is what stresses
	// adaptive subdivision depth in the tree build.
	ModelPlummer Model = iota
	// ModelUniform scatters bodies uniformly inside a unit cube — the
	// best case for spatial partitioning, used by ablation benches.
	ModelUniform
	// ModelTwoClusters places two Plummer spheres on a collision course,
	// the classic "galaxy collision" demo, and the worst case for a
	// static spatial decomposition.
	ModelTwoClusters
	// ModelDisk is a rotating exponential disk galaxy (thin vertical
	// profile, net angular momentum) — strong planar anisotropy that a
	// cubical octree subdivides very unevenly.
	ModelDisk
	// ModelHierarchical nests Plummer sub-halos recursively, producing
	// power-law density contrast at every scale — the distribution that
	// stresses cost-blind partitions hardest.
	ModelHierarchical
)

// String names the model for CLI flags and reports.
func (m Model) String() string {
	switch m {
	case ModelPlummer:
		return "plummer"
	case ModelUniform:
		return "uniform"
	case ModelTwoClusters:
		return "twoclusters"
	case ModelDisk:
		return "disk"
	case ModelHierarchical:
		return "hierarchical"
	}
	return "unknown"
}

// Models lists every model in declaration order.
func Models() []Model {
	return []Model{ModelPlummer, ModelUniform, ModelTwoClusters, ModelDisk, ModelHierarchical}
}

// ModelNames lists the valid CLI names, for flag help and error text.
func ModelNames() []string {
	ms := Models()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}

// ParseModel converts a CLI name into a Model.
func ParseModel(s string) (Model, bool) {
	for _, m := range Models() {
		if s == m.String() {
			return m, true
		}
	}
	return 0, false
}

// Generate builds an n-body system from the given model using a
// deterministic stream seeded by seed. Total mass is 1 in model units
// (G=1), matching the standard N-body convention.
func Generate(m Model, n int, seed int64) *Bodies {
	switch m {
	case ModelUniform:
		return uniformCube(n, rand.New(rand.NewSource(seed)))
	case ModelTwoClusters:
		sep := vec.V3{X: 6}
		vrel := vec.V3{X: -0.25, Y: 0.05}
		return plummerPair(n, rand.New(rand.NewSource(seed)),
			sep.Scale(0.5), vrel.Scale(0.5), sep.Scale(-0.5), vrel.Scale(-0.5))
	case ModelDisk:
		return disk(n, seed)
	case ModelHierarchical:
		return hierarchical(n, seed)
	default:
		b := NewBodies(n)
		plummer(b, 0, n, rand.New(rand.NewSource(seed)), vec.V3{}, vec.V3{}, 1.0)
		return b
	}
}

// plummer fills b[lo:hi] with a Plummer sphere of total mass mtot
// centered at center with bulk velocity drift, using the classic
// Aarseth/Henon/Wielen (1974) rejection recipe. Positions use the scale
// radius a=1; velocities are drawn from the isotropic distribution
// consistent with the potential so the system starts near virial
// equilibrium.
func plummer(b *Bodies, lo, hi int, r *rand.Rand, center, drift vec.V3, mtot float64) {
	mPer := mtot / float64(hi-lo)
	for i := lo; i < hi; i++ {
		// Radius from the cumulative mass profile. Clamp the mass
		// fraction away from 1 to avoid unbounded radii.
		x := r.Float64()
		if x > 0.999 {
			x = 0.999
		}
		rad := 1 / math.Sqrt(math.Pow(x, -2.0/3.0)-1)
		b.Pos[i] = center.Add(isotropic(r).Scale(rad))

		// Speed by von Neumann rejection against g(q) = q²(1-q²)^3.5.
		q := r.Float64()
		for !speedAccepted(q, 0.1*r.Float64()) {
			q = r.Float64()
		}
		vesc := math.Sqrt(2) * math.Pow(1+rad*rad, -0.25) * math.Sqrt(mtot)
		b.Vel[i] = drift.Add(isotropic(r).Scale(q * vesc))
		b.Mass[i] = mPer
		b.Cost[i] = 1
	}
}

// speedAccepted decides the rejection test t < g(q) = q²(1-q²)^3.5. The
// stream's bits are defined by g evaluated with math.Pow, but g is only
// compared, never stored, so this is a filtered exact predicate: g costs
// three multiplies and a square root, within 2e-14·g of the Pow form,
// and math.Pow is consulted only when t lies within 1e-12·g of it. Every
// decision, draw and emitted bit is the one Pow alone would give.
func speedAccepted(q, t float64) bool {
	s := 1 - q*q
	g := q * q * (s * s * s * math.Sqrt(s))
	if math.Abs(t-g) > 1e-12*g {
		return t < g
	}
	return t < q*q*math.Pow(s, 3.5)
}

// isotropic returns a unit vector uniformly distributed on the sphere.
func isotropic(r *rand.Rand) vec.V3 {
	z := 2*r.Float64() - 1
	t := 2 * math.Pi * r.Float64()
	s := math.Sqrt(1 - z*z)
	sin, cos := math.Sincos(t)
	return vec.V3{X: s * cos, Y: s * sin, Z: z}
}

func uniformCube(n int, r *rand.Rand) *Bodies {
	b := NewBodies(n)
	mPer := 1.0 / float64(n)
	for i := 0; i < n; i++ {
		b.Pos[i] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
		b.Vel[i] = isotropic(r).Scale(0.05 * r.Float64())
		b.Mass[i] = mPer
		b.Cost[i] = 1
	}
	return b
}

// plummerPair places two Plummer spheres of mass ½ each, drawn one after
// the other from r: the first ⌊n/2⌋ bodies around offA moving with vA,
// the rest around offB moving with vB.
func plummerPair(n int, r *rand.Rand, offA, vA, offB, vB vec.V3) *Bodies {
	b := NewBodies(n)
	plummer(b, 0, n/2, r, offA, vA, 0.5)
	plummer(b, n/2, n, r, offB, vB, 0.5)
	return b
}
