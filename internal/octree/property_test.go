package octree

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"partree/internal/vec"
)

// randomSystem is a generated body set for property tests: arbitrary
// cluster structure, including coincident points and extreme aspect
// ratios, to stress the builders harder than a Plummer model does.
type randomSystem struct {
	Pos  []vec.V3
	Mass []float64
}

// Generate implements quick.Generator.
func (randomSystem) Generate(r *rand.Rand, size int) reflect.Value {
	n := 1 + r.Intn(400)
	s := randomSystem{Pos: make([]vec.V3, n), Mass: make([]float64, n)}
	// A few cluster centers with wildly different scales.
	nc := 1 + r.Intn(4)
	centers := make([]vec.V3, nc)
	scales := make([]float64, nc)
	for i := range centers {
		centers[i] = vec.V3{X: r.NormFloat64() * 10, Y: r.NormFloat64() * 10, Z: r.NormFloat64() * 10}
		scales[i] = math.Pow(10, float64(r.Intn(5))-2) // 1e-2 .. 1e2
	}
	for i := range s.Pos {
		c := r.Intn(nc)
		s.Pos[i] = centers[c].Add(vec.V3{
			X: r.NormFloat64() * scales[c],
			Y: r.NormFloat64() * scales[c],
			Z: r.NormFloat64() * scales[c],
		})
		if r.Intn(20) == 0 && i > 0 {
			s.Pos[i] = s.Pos[i-1] // deliberate coincident bodies
		}
		s.Mass[i] = r.Float64() + 0.01
	}
	return reflect.ValueOf(s)
}

func TestPropertySerialBuildInvariants(t *testing.T) {
	f := func(sys randomSystem) bool {
		tr := BuildSerial(sys.Pos, 4)
		d := BodyData{Pos: sys.Pos, Mass: sys.Mass}
		ComputeMomentsSerial(tr, d)
		return Check(tr, d, CheckOptions{Canonical: true, Moments: true}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMassConservation(t *testing.T) {
	f := func(sys randomSystem) bool {
		tr := BuildSerial(sys.Pos, 8)
		d := BodyData{Pos: sys.Pos, Mass: sys.Mass}
		ComputeMomentsSerial(tr, d)
		var want float64
		for _, m := range sys.Mass {
			want += m
		}
		root := tr.Store.Cell(tr.Root)
		return feq(root.Mass, want, 1e-9) && int(root.NBody) == len(sys.Pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParallelMomentsMatchSerial: on random systems the parallel
// pass writes every live node's moments and counts the Stats exactly as
// the serial pass does.
func TestPropertyParallelMomentsMatchSerial(t *testing.T) {
	f := func(sys randomSystem, workers uint8) bool {
		w := 1 + int(workers)%8
		d := BodyData{Pos: sys.Pos, Mass: sys.Mass}
		tr := BuildSerial(sys.Pos, 4)
		wantSt := ComputeMomentsSerial(tr, d)
		if msg := parallelMomentsMismatch(tr, d, w, momentBits(tr), wantSt); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLeafDepthConsistency(t *testing.T) {
	// The cube of every node halves exactly per level: size must equal
	// rootSize / 2^depth.
	f := func(sys randomSystem) bool {
		tr := BuildSerial(sys.Pos, 4)
		root := tr.RootCube().Size
		ok := true
		Walk(tr, func(r Ref, depth int) bool {
			var size float64
			if r.IsLeaf() {
				size = tr.Store.Leaf(r).Cube.Size
			} else {
				size = tr.Store.Cell(r).Cube.Size
			}
			want := root / math.Pow(2, float64(depth))
			if !feq(size, want, 1e-12) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
