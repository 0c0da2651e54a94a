package verify

import (
	"encoding/binary"
	"math"
	"testing"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/vec"
)

// fuzzBodies decodes at most maxN bodies, 6 bytes each, two per
// coordinate, mapped onto [-scale, scale]. Records that repeat are
// coincident bodies.
func fuzzBodies(data []byte, maxN int, scale float64) *phys.Bodies {
	n := min(len(data)/6, maxN)
	bodies := phys.NewBodies(n)
	for i := 0; i < n; i++ {
		rec := data[i*6 : i*6+6]
		coord := func(k int) float64 {
			return (float64(binary.LittleEndian.Uint16(rec[k*2:]))/32767.5 - 1) * scale
		}
		bodies.Pos[i] = vec.V3{X: coord(0), Y: coord(1), Z: coord(2)}
		bodies.Mass[i] = 1 / float64(n)
		bodies.Cost[i] = 1
	}
	return bodies
}

// FuzzOrigInsert drives the ORIG concurrent insert path (the richest
// locking discipline: nil→leaf races, leaf subdivision under lock,
// retry-on-invalidation) with fuzzer-chosen body positions and leaf cap,
// and differentially verifies the resulting tree against the serial
// reference. Byte layout: byte 0 is the leaf cap (1..16), then 6 bytes
// per body, two per coordinate, mapped onto [-1, 1]. Degenerate inputs —
// coincident bodies, collinear clusters, a single point — are exactly
// what shakes out MaxDepth overflow and deep-subdivision races.
func FuzzOrigInsert(f *testing.F) {
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0})
	// Two coincident bodies and one far away.
	f.Add([]byte{1, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 255, 255, 255, 255, 255, 255})
	// A spread of bodies at cap 2.
	seed := []byte{2}
	for i := 0; i < 64; i++ {
		seed = append(seed, byte(i*37), byte(i*11), byte(i*53), byte(i*7), byte(i*101), byte(i*13))
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		leafCap := 1 + int(data[0]%16)
		bodies := fuzzBodies(data[1:], 512, 1)
		n := bodies.N()
		const p = 4
		bld := core.New(core.ORIG, core.Config{P: p, LeafCap: leafCap})
		in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(n, p)}
		tree, m := bld.Build(in)
		if err := Build(core.ORIG, tree, m, bodies, 0); err != nil {
			t.Fatalf("n=%d k=%d: %v", n, leafCap, err)
		}
	})
}

// FuzzBuild holds every builder to Build — the serial tree node for node,
// each leaf's bodies in index order, every moment to the bit — on small
// fuzzed systems, over the grid of five algorithms × p ∈ {1, 2, 4} × an
// even and a spatial assignment. Byte layout: byte 0 is the leaf cap
// (1..8); byte 1 the grid cell (mod 30); byte 2 a signed power-of-two
// scale, 2^(9·int8) capped at 2^1022 so the extent stays finite, reaching
// down through the subnormals to 0; then up to 64 bodies as
// FuzzOrigInsert lays them out. The seeds cover every cell. One build
// per input, and seeds of 16 bodies, keep the fuzzer's minimizing of each
// new input short: it tries removing every run of bytes, and a check
// costs about a millisecond at any n (the serial reference is built into
// a fresh store).
func FuzzBuild(f *testing.F) {
	// The coincident and leafcap-1 systems SPACE's bit-for-bit test
	// builds, at 16 bodies, and every body at one point at the top of the
	// float range.
	coincident := phys.Generate(phys.ModelPlummer, 16, 4)
	for i := 0; i < 4; i++ {
		coincident.Pos[i*4] = vec.V3{X: 0.01, Y: 0.02, Z: 0.03}
	}
	for cell := range byte(len(core.Algorithms()) * 6) {
		f.Add(fuzzSeed(4, cell, coincident))
		f.Add(fuzzSeed(1, cell, phys.Generate(phys.ModelTwoClusters, 16, 3)))
		f.Add(append([]byte{1, cell, 127}, make([]byte, 6*9)...))
	}

	// A builder allocates its store's node chunks once, so the builders
	// are kept across inputs at one leaf cap: each build starts from a
	// reset store (UPDATE's, at step 0, from scratch), as a pooled
	// builder does.
	type key struct {
		alg core.Algorithm
		p   int
	}
	builders, builtCap := map[key]core.Builder{}, 0
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		leafCap := 1 + int(data[0]%8)
		cell := int(data[1]) % (len(core.Algorithms()) * 6)
		alg, p, spatial := core.Algorithms()[cell/6], 1<<(cell%3), cell%6 >= 3
		scale := math.Ldexp(1, min(9*int(int8(data[2])), 1022))
		bodies := fuzzBodies(data[3:], 64, scale)
		n := bodies.N()
		if leafCap != builtCap {
			clear(builders)
			builtCap = leafCap
		}
		bld := builders[key{alg, p}]
		if bld == nil {
			bld = core.New(alg, core.Config{P: p, LeafCap: leafCap})
			builders[key{alg, p}] = bld
		}
		assign := core.EvenAssign(n, p)
		if spatial {
			assign = core.SpatialAssign(bodies, p)
		}
		tree, m := bld.Build(&core.Input{Bodies: bodies, Assign: assign})
		if err := Build(alg, tree, m, bodies, 0); err != nil {
			t.Fatalf("%v n=%d k=%d scale=%g p=%d spatial=%v: %v", alg, n, leafCap, scale, p, spatial, err)
		}
	})
}

// fuzzSeed encodes b for FuzzBuild at leaf cap leafCap, grid cell cell
// and scale 1, each coordinate divided by the largest magnitude so it
// fits [-1, 1].
func fuzzSeed(leafCap int, cell byte, b *phys.Bodies) []byte {
	var extent float64
	for _, q := range b.Pos {
		extent = max(extent, math.Abs(q.X), math.Abs(q.Y), math.Abs(q.Z))
	}
	out := []byte{byte(leafCap - 1), cell, 0}
	for _, q := range b.Pos {
		for _, c := range []float64{q.X, q.Y, q.Z} {
			out = binary.LittleEndian.AppendUint16(out, uint16(math.Round((c/extent+1)*32767.5)))
		}
	}
	return out
}
