package force

import (
	"math"
	"testing"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

func setup(t *testing.T, n int, seed int64) (*phys.Bodies, *octree.Tree, octree.BodyData) {
	t.Helper()
	b := phys.Generate(phys.ModelPlummer, n, seed)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)
	return b, tr, d
}

func relErr(a, b vec.V3) float64 {
	return a.Sub(b).Len() / (b.Len() + 1e-12)
}

func TestAccelMatchesDirectSmallTheta(t *testing.T) {
	// θ→0 forces the traversal to open every cell: Barnes-Hut must
	// reduce to the direct sum exactly (up to summation order).
	b, tr, d := setup(t, 300, 5)
	p := Params{Theta: 1e-9, Eps: 0.05}
	for i := 0; i < b.N(); i += 17 {
		bh := Accel(tr, d, int32(i), p).Acc
		ex := Direct(d, int32(i), p)
		if e := relErr(bh, ex); e > 1e-9 {
			t.Fatalf("body %d: θ≈0 error %g", i, e)
		}
	}
}

func TestAccelAccuracyModerateTheta(t *testing.T) {
	b, tr, d := setup(t, 2000, 7)
	p := Params{Theta: 0.8, Eps: 0.05}
	var worst float64
	for i := 0; i < b.N(); i += 13 {
		bh := Accel(tr, d, int32(i), p).Acc
		ex := Direct(d, int32(i), p)
		if e := relErr(bh, ex); e > worst {
			worst = e
		}
	}
	// Standard BH accuracy at θ=0.8 is ~1%; allow slack for worst case.
	if worst > 0.12 {
		t.Fatalf("worst relative error %g too large for θ=0.8", worst)
	}
}

func TestAccelFewerInteractionsLargerTheta(t *testing.T) {
	_, tr, d := setup(t, 4000, 3)
	small := Accel(tr, d, 0, Params{Theta: 0.3, Eps: 0.05})
	large := Accel(tr, d, 0, Params{Theta: 1.2, Eps: 0.05})
	if large.Interactions >= small.Interactions {
		t.Fatalf("θ=1.2 interactions %d not below θ=0.3's %d", large.Interactions, small.Interactions)
	}
	if large.Interactions >= 4000 {
		t.Fatalf("θ=1.2 did not save over direct: %d", large.Interactions)
	}
}

func TestAccelExcludesSelf(t *testing.T) {
	// A lone pair: each body must feel only the other.
	pos := []vec.V3{{X: 0}, {X: 1}}
	mass := []float64{1, 1}
	tr := octree.BuildSerial(pos, 8)
	d := octree.BodyData{Pos: pos, Mass: mass}
	octree.ComputeMomentsSerial(tr, d)
	p := Params{Theta: 0.5, Eps: 0}
	a0 := Accel(tr, d, 0, p)
	if a0.Interactions != 1 {
		t.Fatalf("interactions = %d, want 1", a0.Interactions)
	}
	if math.Abs(a0.Acc.X-1) > 1e-12 || a0.Acc.Y != 0 {
		t.Fatalf("acc = %v, want (1,0,0)", a0.Acc)
	}
}

func TestNewtonThirdLawSymmetry(t *testing.T) {
	// Direct accelerations weighted by mass must cancel pairwise.
	b, _, d := setup(t, 50, 9)
	p := Params{Theta: 1, Eps: 0.01}
	var net vec.V3
	for i := 0; i < b.N(); i++ {
		net = net.MulAdd(b.Mass[i], Direct(d, int32(i), p))
	}
	if net.Len() > 1e-10 {
		t.Fatalf("net direct force %v not zero", net)
	}
}

func TestComputeAllMatchesSequential(t *testing.T) {
	b, tr, d := setup(t, 1500, 11)
	p := DefaultParams()
	want := make([]vec.V3, b.N())
	for i := range want {
		want[i] = Accel(tr, d, int32(i), p).Acc
	}
	for _, nw := range []int{1, 3, 8} {
		b2 := b.Clone()
		st := ComputeAll(tr, b2, core.EvenAssign(b.N(), nw), p)
		for i := range want {
			if b2.Acc[i] != want[i] {
				t.Fatalf("nw=%d: acc[%d] = %v, want %v", nw, i, b2.Acc[i], want[i])
			}
			if b2.Cost[i] <= 0 {
				t.Fatalf("nw=%d: cost[%d] = %d", nw, i, b2.Cost[i])
			}
		}
		if st.Interactions <= 0 || st.NodesVisited <= 0 {
			t.Fatalf("nw=%d: empty stats %+v", nw, st)
		}
	}
}

func TestAccelSingleBody(t *testing.T) {
	pos := []vec.V3{{X: 0.5}}
	mass := []float64{1}
	tr := octree.BuildSerial(pos, 8)
	d := octree.BodyData{Pos: pos, Mass: mass}
	octree.ComputeMomentsSerial(tr, d)
	r := Accel(tr, d, 0, DefaultParams())
	if r.Acc != (vec.V3{}) || r.Interactions != 0 {
		t.Fatalf("lone body produced %+v", r)
	}
}

func TestCostsReflectDensity(t *testing.T) {
	// Bodies in the dense core of a Plummer sphere do more interactions
	// than bodies on the fringe.
	b, tr, d := setup(t, 8000, 13)
	p := DefaultParams()
	com := b.CenterOfMass()
	var coreSum, fringeSum, coreN, fringeN int64
	for i := 0; i < b.N(); i += 7 {
		r := Accel(tr, d, int32(i), p)
		if b.Pos[i].Dist(com) < 0.5 {
			coreSum += r.Interactions
			coreN++
		} else if b.Pos[i].Dist(com) > 3 {
			fringeSum += r.Interactions
			fringeN++
		}
	}
	if coreN == 0 || fringeN == 0 {
		t.Skip("sample missed a region")
	}
	if coreSum/coreN <= fringeSum/fringeN {
		t.Fatalf("core cost %d not above fringe cost %d", coreSum/coreN, fringeSum/fringeN)
	}
}
