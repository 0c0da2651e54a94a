package mp

import (
	"math"
	"testing"

	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

func TestORBPartitions(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16} {
		b := phys.Generate(phys.ModelPlummer, 3000, 5)
		doms := ORB(b, p)
		if len(doms) != p {
			t.Fatalf("p=%d: %d domains", p, len(doms))
		}
		if err := Validate(b, doms); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// Balance: within a couple of bodies of even.
		for _, d := range doms {
			want := float64(b.N()) / float64(p)
			if math.Abs(float64(len(d.Bodies))-want) > want/2+2 {
				t.Fatalf("p=%d: rank %d holds %d bodies, want ~%.0f", p, d.Rank, len(d.Bodies), want)
			}
		}
	}
}

func TestORBBoxesDisjointInterior(t *testing.T) {
	b := phys.Generate(phys.ModelUniform, 2000, 3)
	doms := ORB(b, 8)
	// Box centers of one domain must not fall strictly inside another's.
	for i, a := range doms {
		c := a.Box.Lo.Add(a.Box.Hi).Scale(0.5)
		for j, d := range doms {
			if i == j {
				continue
			}
			inside := c.X > d.Box.Lo.X && c.X < d.Box.Hi.X &&
				c.Y > d.Box.Lo.Y && c.Y < d.Box.Hi.Y &&
				c.Z > d.Box.Lo.Z && c.Z < d.Box.Hi.Z
			if inside {
				t.Fatalf("rank %d center inside rank %d box", i, j)
			}
		}
	}
}

func TestEssentialCoversAllMass(t *testing.T) {
	// The essential set of a tree for any box must carry the tree's
	// total mass (every body summarized exactly once).
	b := phys.Generate(phys.ModelPlummer, 2000, 7)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass}
	octree.ComputeMomentsSerial(tr, d)
	box := vec.Box{Lo: vec.V3{X: 10, Y: 10, Z: 10}, Hi: vec.V3{X: 12, Y: 12, Z: 12}}
	mps, rbs := Essential(tr, d, box, 1.0)
	var mass float64
	for _, m := range mps {
		mass += m.Mass
	}
	for _, r := range rbs {
		mass += r.Mass
	}
	if math.Abs(mass-b.TotalMass()) > 1e-9 {
		t.Fatalf("essential mass %g, want %g", mass, b.TotalMass())
	}
	// A far box should be dominated by mass points, not raw bodies.
	if len(rbs) > len(mps) {
		t.Fatalf("far box shipped %d raw bodies vs %d points", len(rbs), len(mps))
	}
}

func TestEssentialNearBoxShipsBodies(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 2000, 7)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass}
	octree.ComputeMomentsSerial(tr, d)
	// A box overlapping the core cannot summarize nearby leaves.
	box := vec.Box{Lo: vec.V3{X: -0.2, Y: -0.2, Z: -0.2}, Hi: vec.V3{X: 0.2, Y: 0.2, Z: 0.2}}
	_, rbs := Essential(tr, d, box, 1.0)
	if len(rbs) == 0 {
		t.Fatal("no raw bodies shipped for an overlapping box")
	}
}

func TestMPForcesMatchDirect(t *testing.T) {
	// The MP evaluation re-groups received mass points into a remote
	// tree, adding a second approximation layer on top of BH's, so its
	// error may exceed single-tree BH's by a modest factor — but it must
	// stay the same order of magnitude and small in absolute terms.
	b := phys.Generate(phys.ModelPlummer, 1500, 9)
	params := force.Params{Theta: 0.8, Eps: 0.05, G: 1}

	// Single-tree BH reference.
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass}
	octree.ComputeMomentsSerial(tr, d)

	mpRun := b.Clone()
	Step(mpRun, Options{P: 4, LeafCap: 8, Force: params, Dt: 0})

	var errBH, errMP float64
	n := 0
	for i := 0; i < b.N(); i += 31 {
		exact := force.Direct(d, int32(i), params)
		bh := force.Accel(tr, d, int32(i), params).Acc
		mp := mpRun.Acc[i]
		scale := exact.Len() + 1e-12
		errBH += bh.Sub(exact).Len() / scale
		errMP += mp.Sub(exact).Len() / scale
		n++
	}
	errBH /= float64(n)
	errMP /= float64(n)
	if errMP > errBH*2.5 {
		t.Fatalf("MP mean error %.4g far worse than BH %.4g", errMP, errBH)
	}
	if errMP > 0.05 {
		t.Fatalf("MP mean error %.4g too large", errMP)
	}
}

func TestMPConservesMomentumish(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 1000, 11)
	p0 := b.Momentum()
	for step := 0; step < 3; step++ {
		Step(b, Options{P: 4, Dt: 0.01})
	}
	if b.Momentum().Sub(p0).Len() > 1e-3 {
		t.Fatalf("momentum drifted: %v -> %v", p0, b.Momentum())
	}
}

func TestMPBytesScaleSublinearly(t *testing.T) {
	// The point of LETs: communication grows far slower than N².
	bytes := func(n int) int64 {
		b := phys.Generate(phys.ModelPlummer, n, 13)
		st := Step(b, Options{P: 8, Dt: 0})
		return st.TotalBytes()
	}
	b1, b4 := bytes(2000), bytes(8000)
	if b4 > b1*8 {
		t.Fatalf("bytes grew too fast: %d -> %d for 4x bodies", b1, b4)
	}
	if b1 <= 0 {
		t.Fatal("no communication counted")
	}
}

func TestMPStatspopulated(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 2000, 3)
	st := Step(b, Options{P: 4})
	if st.TotalInteractions() == 0 {
		t.Fatal("no interactions")
	}
	for r, rs := range st.PerRank {
		if rs.Bodies == 0 || rs.RemoteItems == 0 {
			t.Fatalf("rank %d empty: %+v", r, rs)
		}
		if rs.MsgsSent < 3 { // 3 LETs + allreduce
			t.Fatalf("rank %d sent %d msgs", r, rs.MsgsSent)
		}
	}
}
