package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"sort"
	"testing"

	"partree/internal/phys"
)

// TestDiskGalaxyShape checks the disk generator's physical signature,
// table-driven over seeds: bodies hug the midplane within the scale
// height's statistical bounds, and the net angular momentum is strongly
// nonzero (the disk rotates).
func TestDiskGalaxyShape(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		name   string
		seed   int64
		params phys.DiskParams
		h      float64 // effective scale height
	}{
		{"default-seed1", 1, phys.DiskParams{}, 0.1},
		{"default-seed7", 7, phys.DiskParams{}, 0.1},
		{"thin", 42, phys.DiskParams{ScaleHeight: 0.05}, 0.05},
		{"thick", 42, phys.DiskParams{ScaleHeight: 0.3}, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := phys.Disk(n, tc.seed, tc.params)
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
				if z <= 3*tc.h {
					in3h++
				}
				lz += b.Mass[i] * (b.Pos[i].X*b.Vel[i].Y - b.Pos[i].Y*b.Vel[i].X)
			}
			if maxZ > 15*tc.h {
				t.Errorf("max |z| = %.3f exceeds 15 scale heights (h=%g)", maxZ, tc.h)
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

// TestCollidingClustersApproach drives the collision scenario through
// leapfrog steps and checks the two cluster centroids close in — the
// time-evolving bimodality that stresses a static spatial partition.
func TestCollidingClustersApproach(t *testing.T) {
	for _, tc := range []struct {
		name string
		seed int64
		opts map[string]float64
	}{
		{"head-on", 1, map[string]float64{"speed": 0.5}},
		{"impact-1.5", 7, map[string]float64{"impact": 1.5, "speed": 0.5}},
		{"impact-3", 42, map[string]float64{"impact": 3, "speed": 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := Scenario{Kind: "collision", Opts: tc.opts}
			b, err := sc.Generate(3000, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			dist := func() float64 {
				a, c := HalfCentroids(b)
				return math.Sqrt((a[0]-c[0])*(a[0]-c[0]) + (a[1]-c[1])*(a[1]-c[1]) + (a[2]-c[2])*(a[2]-c[2]))
			}
			d0 := dist()
			Evolve(b, 8, 0.2)
			d1 := dist()
			if d1 >= d0-0.3 {
				t.Errorf("centroid distance %.3f -> %.3f over 8 steps, want a closing approach (≥ 0.3 nearer)", d0, d1)
			}
		})
	}
}

// nnDistances returns each body's distance to its 8th nearest neighbor —
// an inverse local-density probe (ρ ∝ nn⁻³). O(n²), test-only.
func nnDistances(b *phys.Bodies) []float64 {
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
// generator's defining property through the local density field: the
// typical density around a body is far above uniform's (its radial
// profile falls off steeply away from every sub-halo), and the 90/10
// density contrast is a multiple of uniform's (power-law structure at
// every scale, not one smooth blob).
func TestHierarchicalDensitySteeperThanUniform(t *testing.T) {
	const n = 2000
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := phys.Hierarchical(n, seed, phys.HierarchicalParams{})
			u := phys.Generate(phys.ModelUniform, n, seed)
			stats := func(b *phys.Bodies) (mean, contrast float64) {
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

// goldenSnapshots pins every generator's byte-exact output at n=512,
// seed=1998 (SHA-256 of phys.Snapshot bytes). A hash change means the
// sampling recipe changed — committed benchmarks, loadgen reports, and
// hypothesis FINDINGS all assume these streams are stable. Regenerate
// deliberately if a generator is redesigned: PR 17 re-pinned the two
// disk entries, whose radii moved in their last ulps when a Halley
// iteration replaced the sixty-step bisection of the mass profile (the
// other seven streams are held to their bits by phys's
// TestGenerateMatchesReferenceRecipe).
var goldenSnapshots = map[string]string{
	"plummer":                        "a07691a14b2f6cc1096974d77564f0c7632de74c5f18f7b99ac94755bd3eff7a",
	"uniform":                        "b65b63876a5e0e6e78d24a1309af656d8fd1f1da20deaa1c159347f78f90ea0d",
	"twoclusters":                    "f08285539dd996ff93d27ca1cf67dc3d6ed47d447cc5262c3517119066ac4aba",
	"disk":                           "677d36ad4c326e90567f80746d712f20a874e381153764be63dccf7b9d5fd044",
	"hierarchical":                   "5a3c08fcf0fa1e000b7f9d7fffc058a6d86a4859fad6c6454f3e54956fa2cac0",
	"collision:impact=1.5,speed=0.5": "9878caf53e82976aeb60786ee77b1b03618a96d3bd54ac735f59ad958632e073",
	"disk:zscale=0.05":               "650df1051fb2fbf142260f8e1d6520db780edea2c9ab66c976e92df79efb6772",
	"hierarchical:branch=6,levels=2": "897ba4947ffaf96230472409e82d32dde5f4ca71b8ab76f864c1bd9eff349323",
	"collision:evolve=3,dt=0.05":     "cedf396b749b110c291bd4349f079d13cd54984ee0cd8b3b3052b06b72d12da5",
}

func TestGeneratorsGoldenSnapshots(t *testing.T) {
	for spec, want := range goldenSnapshots {
		t.Run(spec, func(t *testing.T) {
			sc, err := ParseScenario(spec)
			if err != nil {
				t.Fatal(err)
			}
			hash := func() string {
				b, err := sc.Generate(512, 1998)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := b.WriteSnapshot(&buf); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			}
			h1, h2 := hash(), hash()
			if h1 != h2 {
				t.Fatalf("two generations of %q differ: %s vs %s", spec, h1, h2)
			}
			if h1 != want {
				t.Errorf("snapshot hash of %q = %s, want %s (generator output changed)", spec, h1, want)
			}
		})
	}
}

// TestParseScenario covers the spec grammar: canonical names, option
// validation, the evolve/dt wrapper, and the server-model contract.
func TestParseScenario(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		server  string
		ok      bool
		wantErr bool
	}{
		{in: "disk", name: "disk", server: "disk", ok: true},
		{in: "collision", name: "collision", server: "twoclusters", ok: true},
		{in: "collision:impact=2", name: "collision:impact=2", ok: false},
		{in: "hierarchical:branch=6,levels=2", name: "hierarchical:branch=6,levels=2", ok: false},
		{in: "uniform", name: "uniform", server: "uniform", ok: true},
		{in: "plummer:evolve=5", name: "plummer:evolve=5,dt=0.025", ok: false},
		{in: "galaxy", wantErr: true},
		{in: "disk:warp=3", wantErr: true},
		{in: "disk:zscale", wantErr: true},
		{in: "disk:zscale=abc", wantErr: true},
	}
	for _, tc := range cases {
		sc, err := ParseScenario(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseScenario(%q) succeeded, want error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", tc.in, err)
			continue
		}
		if got := sc.Name(); got != tc.name {
			t.Errorf("ParseScenario(%q).Name() = %q, want %q", tc.in, got, tc.name)
		}
		model, ok := sc.ServerModel()
		if ok != tc.ok || (ok && model != tc.server) {
			t.Errorf("ParseScenario(%q).ServerModel() = (%q, %t), want (%q, %t)",
				tc.in, model, ok, tc.server, tc.ok)
		}
	}
}

// TestEvolveProducesChurn pins the reason the evolving wrapper exists:
// advancing a scenario moves a meaningful fraction of bodies, so a
// session replaying the frames exercises UPDATE's incremental path.
func TestEvolveProducesChurn(t *testing.T) {
	sc := Scenario{Kind: "collision", Opts: map[string]float64{"speed": 0.5}}
	b, err := sc.Generate(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, b.N())
	for i := range before {
		before[i] = b.Pos[i].X
	}
	Evolve(b, 3, 0.05)
	moved := 0
	for i := range before {
		if b.Pos[i].X != before[i] {
			moved++
		}
	}
	if frac := float64(moved) / float64(b.N()); frac < 0.99 {
		t.Errorf("only %.3f of bodies moved after 3 evolution steps", frac)
	}
}
