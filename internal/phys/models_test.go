package phys

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"
)

// goldenSnapshots pins every model's byte-exact output at n=512,
// seed=1998 (SHA-256 of the Snapshot bytes). A hash change means the
// sampling recipe changed — committed benchmarks, loadgen reports, and
// hypothesis FINDINGS all assume these streams are stable. Regenerate
// deliberately if a generator is redesigned: PR 17 re-pinned the disk,
// whose radii moved in their last ulps when a Halley iteration replaced
// the sixty-step bisection of the mass profile. The disk's entry is the
// only pin its stream has; the other four are also held to their bits
// by TestGenerateMatchesReferenceRecipe.
var goldenSnapshots = map[Model]string{
	ModelPlummer:      "a07691a14b2f6cc1096974d77564f0c7632de74c5f18f7b99ac94755bd3eff7a",
	ModelUniform:      "b65b63876a5e0e6e78d24a1309af656d8fd1f1da20deaa1c159347f78f90ea0d",
	ModelTwoClusters:  "f08285539dd996ff93d27ca1cf67dc3d6ed47d447cc5262c3517119066ac4aba",
	ModelDisk:         "677d36ad4c326e90567f80746d712f20a874e381153764be63dccf7b9d5fd044",
	ModelHierarchical: "5a3c08fcf0fa1e000b7f9d7fffc058a6d86a4859fad6c6454f3e54956fa2cac0",
}

func TestGeneratorsGoldenSnapshots(t *testing.T) {
	for _, m := range Models() {
		t.Run(m.String(), func(t *testing.T) {
			hash := func() string {
				var buf bytes.Buffer
				if err := Generate(m, 512, 1998).WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			}
			h1, h2 := hash(), hash()
			if h1 != h2 {
				t.Fatalf("two generations of %s differ: %s vs %s", m, h1, h2)
			}
			if want := goldenSnapshots[m]; h1 != want {
				t.Errorf("snapshot hash of %s = %s, want %s (generator output changed)", m, h1, want)
			}
		})
	}
}

// TestDiskGalaxyShape checks the disk's physical signature, table-driven
// over seeds: bodies hug the midplane within the scale height's
// statistical bounds, and the net angular momentum is strongly nonzero
// (the disk rotates).
func TestDiskGalaxyShape(t *testing.T) {
	const n, h = 4000, diskScaleHeight
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("default-seed%d", seed), func(t *testing.T) {
			b := Generate(ModelDisk, n, seed)
			if err := b.Validate(); err != nil {
				t.Fatal(err)
			}
			// |z| is Exp(h): the max of n draws concentrates near h·ln n
			// (≈8.3h at n=4000); 15h leaves five e-foldings of slack, so a
			// failure means the profile is wrong, not unlucky. The 3h mass
			// fraction is 1-e⁻³ ≈ 0.950 in expectation.
			maxZ, in3h := 0.0, 0
			var lz float64
			for i := 0; i < n; i++ {
				z := math.Abs(b.Pos[i].Z)
				if z > maxZ {
					maxZ = z
				}
				if z <= 3*h {
					in3h++
				}
				lz += b.Mass[i] * (b.Pos[i].X*b.Vel[i].Y - b.Pos[i].Y*b.Vel[i].X)
			}
			if maxZ > 15*h {
				t.Errorf("max |z| = %.3f exceeds 15 scale heights (h=%g)", maxZ, h)
			}
			if frac := float64(in3h) / n; frac < 0.92 {
				t.Errorf("only %.3f of bodies within 3 scale heights, want ≥ 0.92", frac)
			}
			// Total mass 1 and v_circ ~ O(1) near the scale length put a
			// coherently rotating disk's L_z near 1; an isotropic cloud's
			// would cancel to ~n^-1/2.
			if lz < 0.5 {
				t.Errorf("net angular momentum L_z = %.4f, want > 0.5 (disk must rotate)", lz)
			}
		})
	}
}

// nnDistances returns each body's distance to its 8th nearest neighbor —
// an inverse local-density probe (ρ ∝ nn⁻³). O(n²), test-only.
func nnDistances(b *Bodies) []float64 {
	n := b.N()
	out := make([]float64, n)
	d2s := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d2s[j] = b.Pos[i].Dist2(b.Pos[j])
		}
		sort.Float64s(d2s)
		out[i] = math.Sqrt(d2s[8]) // d2s[0] is the self-distance
	}
	return out
}

// TestHierarchicalDensitySteeperThanUniform checks the nested-halo
// model's defining property through the local density field: the
// typical density around a body is far above uniform's (its radial
// profile falls off steeply away from every sub-halo), and the 90/10
// density contrast is a multiple of uniform's (power-law structure at
// every scale, not one smooth blob).
func TestHierarchicalDensitySteeperThanUniform(t *testing.T) {
	const n = 2000
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := Generate(ModelHierarchical, n, seed)
			u := Generate(ModelUniform, n, seed)
			stats := func(b *Bodies) (mean, contrast float64) {
				nn := nnDistances(b)
				com := b.CenterOfMass()
				var rmax float64
				for i := range nn {
					mean += nn[i]
					if r := b.Pos[i].Dist(com); r > rmax {
						rmax = r
					}
				}
				mean /= float64(len(nn)) * rmax
				sort.Float64s(nn)
				return mean, nn[len(nn)*9/10] / nn[len(nn)/10]
			}
			hMean, hContrast := stats(h)
			uMean, uContrast := stats(u)
			// Measured across seeds: hier mean ≈ 0.02-0.04 vs uniform
			// ≈ 0.12; contrast ≈ 3.4 vs ≈ 1.5.
			if hMean >= 0.5*uMean {
				t.Errorf("hierarchical normalized NN distance %.4f not below half of uniform's %.4f", hMean, uMean)
			}
			if hContrast <= 2*uContrast {
				t.Errorf("hierarchical density contrast %.2f not above 2x uniform's %.2f", hContrast, uContrast)
			}
		})
	}
}
