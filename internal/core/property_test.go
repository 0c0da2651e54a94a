package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
)

// buildCase is a random configuration for builder property tests.
type buildCase struct {
	Pos     []vec.V3
	P       int
	LeafCap int
	Alg     Algorithm
}

// Generate implements quick.Generator: clustered positions with mixed
// scales, coincident runs, random processor counts and leaf capacities.
func (buildCase) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(600) // includes n == 0
	c := buildCase{
		Pos:     make([]vec.V3, n),
		P:       1 + r.Intn(10),
		LeafCap: 1 + r.Intn(12),
		Alg:     Algorithm(r.Intn(NumAlgorithms)),
	}
	nc := 1 + r.Intn(3)
	centers := make([]vec.V3, nc)
	for i := range centers {
		centers[i] = vec.V3{X: r.NormFloat64() * 5, Y: r.NormFloat64() * 5, Z: r.NormFloat64() * 5}
	}
	for i := range c.Pos {
		ctr := centers[r.Intn(nc)]
		scale := math.Pow(10, float64(r.Intn(4))-2)
		c.Pos[i] = ctr.Add(vec.V3{
			X: r.NormFloat64() * scale,
			Y: r.NormFloat64() * scale,
			Z: r.NormFloat64() * scale,
		})
		if i > 0 && r.Intn(25) == 0 {
			c.Pos[i] = c.Pos[i-1]
		}
	}
	return reflect.ValueOf(c)
}

func (c buildCase) bodies() *phys.Bodies {
	b := phys.NewBodies(len(c.Pos))
	copy(b.Pos, c.Pos)
	for i := range b.Mass {
		b.Mass[i] = 1
		b.Cost[i] = 1
	}
	return b
}

// TestPropertyBuildersCanonical: every builder, on any input, produces a
// tree identical to the canonical sequential tree with valid moments.
func TestPropertyBuildersCanonical(t *testing.T) {
	f := func(c buildCase) bool {
		b := c.bodies()
		in := &Input{Bodies: b, Assign: EvenAssign(b.N(), c.P)}
		bld := New(c.Alg, Config{P: c.P, LeafCap: c.LeafCap})
		tr, _ := bld.Build(in)
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(tr, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
			t.Logf("alg=%v p=%d k=%d n=%d: %v", c.Alg, c.P, c.LeafCap, b.N(), err)
			return false
		}
		ref := octree.BuildSerial(b.Pos, c.LeafCap)
		if err := octree.Equal(tr, ref); err != nil {
			t.Logf("alg=%v p=%d k=%d n=%d: %v", c.Alg, c.P, c.LeafCap, b.N(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUpdateManySteps: UPDATE stays structurally valid while
// bodies random-walk, leaves get reclaimed, and cells empty out.
func TestPropertyUpdateManySteps(t *testing.T) {
	f := func(seed int64, pSeed uint8) bool {
		r := rand.New(rand.NewSource(seed))
		p := 1 + int(pSeed)%6
		b := phys.Generate(phys.ModelTwoClusters, 400+r.Intn(800), seed)
		bld := New(UPDATE, Config{P: p, LeafCap: 4})
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		for step := 0; step < 6; step++ {
			in := &Input{Bodies: b, Assign: EvenAssign(b.N(), p), Step: step}
			tr, _ := bld.Build(in)
			if err := octree.Check(tr, d, octree.CheckOptions{Moments: true}); err != nil {
				t.Logf("seed=%d p=%d step=%d: %v", seed, p, step, err)
				return false
			}
			// Random-walk the bodies, aggressively.
			for i := range b.Pos {
				b.Pos[i] = b.Pos[i].Add(vec.V3{
					X: r.NormFloat64() * 0.3,
					Y: r.NormFloat64() * 0.3,
					Z: r.NormFloat64() * 0.3,
				})
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySpatialAssignCovers: SpatialAssign is a valid partition and
// produces spatially tighter chunks than index order on clustered input.
func TestPropertySpatialAssignCovers(t *testing.T) {
	f := func(seed int64, pSeed uint8) bool {
		p := 1 + int(pSeed)%8
		b := phys.Generate(phys.ModelPlummer, 500, seed)
		assign := SpatialAssign(b, p)
		seen := make([]bool, b.N())
		for _, chunk := range assign {
			for _, i := range chunk {
				if seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSpatialAssignMatchesComparisonSort holds SpatialAssign to the
// algorithm it replaced — sort.Slice on (Morton key, index), even cuts —
// chunk for chunk and element for element, on every model. (The keys
// themselves are pinned to their bit-loop reference in partition.)
func TestSpatialAssignMatchesComparisonSort(t *testing.T) {
	for _, m := range phys.Models() {
		for _, n := range []int{1, 7, 10000} {
			b := phys.Generate(m, n, 17)
			cube := b.Bounds(1e-4)
			idx := make([]int32, n)
			keys := make([]uint64, n)
			for i := range idx {
				idx[i], keys[i] = int32(i), partition.MortonKey(cube, b.Pos[i])
			}
			sort.Slice(idx, func(a, c int) bool {
				if keys[idx[a]] != keys[idx[c]] {
					return keys[idx[a]] < keys[idx[c]]
				}
				return idx[a] < idx[c]
			})
			for _, p := range []int{1, 2, 3, 8, n + 1} {
				got := SpatialAssign(b, p)
				if len(got) != p {
					t.Fatalf("%v n=%d p=%d: %d chunks", m, n, p, len(got))
				}
				for w := range got {
					want := idx[n*w/p : n*(w+1)/p]
					if len(got[w]) != len(want) {
						t.Fatalf("%v n=%d p=%d: chunk %d has %d bodies, want %d", m, n, p, w, len(got[w]), len(want))
					}
					for i := range want {
						if got[w][i] != want[i] {
							t.Fatalf("%v n=%d p=%d: chunk %d[%d] = %d, want %d", m, n, p, w, i, got[w][i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBuildersDegenerateInputs: pathological inputs must not hang or panic.
func TestBuildersDegenerateInputs(t *testing.T) {
	cases := map[string][]vec.V3{
		"all-coincident": repeated(vec.V3{X: 1, Y: 1, Z: 1}, 50),
		"collinear":      line(64),
		"two-points":     {{X: 0}, {X: 1e-12}},
		"huge-spread":    {{X: -1e9}, {X: 1e9}, {Y: 1e9}, {Z: -1e9}, {X: 1e-9}},
	}
	for name, pos := range cases {
		for _, alg := range Algorithms() {
			b := phys.NewBodies(len(pos))
			copy(b.Pos, pos)
			for i := range b.Mass {
				b.Mass[i] = 1
			}
			bld := New(alg, Config{P: 3, LeafCap: 2})
			tr, _ := bld.Build(&Input{Bodies: b, Assign: EvenAssign(b.N(), 3)})
			d := octree.BodyData{Pos: b.Pos, Mass: b.Mass}
			if err := octree.Check(tr, d, octree.CheckOptions{}); err != nil {
				t.Fatalf("%s/%v: %v", name, alg, err)
			}
		}
	}
}

func repeated(v vec.V3, n int) []vec.V3 {
	out := make([]vec.V3, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func line(n int) []vec.V3 {
	out := make([]vec.V3, n)
	for i := range out {
		out[i] = vec.V3{X: float64(i) * 0.001}
	}
	return out
}
