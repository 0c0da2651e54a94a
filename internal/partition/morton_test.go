package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"partree/internal/phys"
	"partree/internal/vec"
)

// refMortonKey is the keying as it was first written — scale and low
// corner recomputed per call, one bit of each axis interleaved per loop
// iteration — kept here as the reference Keyer.Key is checked against.
func refMortonKey(domain vec.Cube, p vec.V3) uint64 {
	quantize := func(x float64) uint64 {
		if x != x || x < 0 {
			return 0
		}
		if x > 65535 {
			return 65535
		}
		return uint64(x)
	}
	scale := float64(uint64(1)<<KeyBits) / domain.Size
	min := domain.Min()
	qx := quantize((p.X - min.X) * scale)
	qy := quantize((p.Y - min.Y) * scale)
	qz := quantize((p.Z - min.Z) * scale)
	var key uint64
	for i := 0; i < KeyBits; i++ {
		key |= (qx>>i&1)<<(3*i) | (qy>>i&1)<<(3*i+1) | (qz>>i&1)<<(3*i+2)
	}
	return key
}

// refOrder is the ordering Order replaced on the request path: a
// comparison sort on (key, index).
func refOrder(pos []vec.V3, domain vec.Cube) []int32 {
	idx := make([]int32, len(pos))
	keys := make([]uint64, len(pos))
	for i, p := range pos {
		idx[i] = int32(i)
		keys[i] = refMortonKey(domain, p)
	}
	sort.Slice(idx, func(a, b int) bool {
		if keys[idx[a]] != keys[idx[b]] {
			return keys[idx[a]] < keys[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// TestKeyerMatchesBitLoop is the differential gate on the keying: the
// mask-and-shift Keyer must agree bit-for-bit with the bit-loop
// reference over random domains and positions inside, on, and well
// outside the domain (which clamp to its faces).
func TestKeyerMatchesBitLoop(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		domain := vec.Cube{
			Center: vec.V3{X: r.NormFloat64(), Y: r.NormFloat64(), Z: r.NormFloat64()},
			Size:   math.Ldexp(1+r.Float64(), r.Intn(10)-5),
		}
		k := NewKeyer(domain)
		check := func(p vec.V3) {
			t.Helper()
			want := refMortonKey(domain, p)
			if got := k.Key(p); got != want {
				t.Fatalf("trial %d: Keyer(%v).Key(%v) = %#x, bit loop = %#x", trial, domain, p, got, want)
			}
			if got := MortonKey(domain, p); got != want {
				t.Fatalf("trial %d: MortonKey(%v, %v) = %#x, bit loop = %#x", trial, domain, p, got, want)
			}
		}
		for i := 0; i < 2000; i++ {
			h := domain.Size * 1.5
			check(vec.V3{
				X: domain.Center.X + (r.Float64()-0.5)*h,
				Y: domain.Center.Y + (r.Float64()-0.5)*h,
				Z: domain.Center.Z + (r.Float64()-0.5)*h,
			})
		}
		check(domain.Min())
		check(domain.Max())
		check(domain.Center)
	}
}

// TestKeyNaN pins the one input whose quantization Go leaves to the
// platform: a NaN coordinate keys as 0 on its axis, the other axes
// unaffected.
func TestKeyNaN(t *testing.T) {
	domain := vec.Cube{Size: 2}
	if got := MortonKey(domain, vec.V3{X: math.NaN(), Y: math.NaN(), Z: math.NaN()}); got != 0 {
		t.Fatalf("all-NaN position keys %#x, want 0", got)
	}
	got := MortonKey(domain, vec.V3{X: math.NaN(), Y: 0.25, Z: -0.5})
	if want := MortonKey(domain, vec.V3{X: -1, Y: 0.25, Z: -0.5}); got != want {
		t.Fatalf("NaN x keys %#x, want the low-face key %#x", got, want)
	}
}

func TestMortonKeyRange(t *testing.T) {
	domain := vec.Cube{Size: 2}
	corners := []vec.V3{
		{X: -1, Y: -1, Z: -1}, {X: 1, Y: 1, Z: 1},
		{X: -100, Y: -100, Z: -100}, {X: 100, Y: 100, Z: 100},
	}
	for _, p := range corners {
		k := MortonKey(domain, p)
		if k >= KeySpace {
			t.Fatalf("MortonKey(%v) = %#x escapes [0, KeySpace)", p, k)
		}
	}
	if lo := MortonKey(domain, vec.V3{X: -100, Y: -100, Z: -100}); lo != 0 {
		t.Fatalf("far low corner should clamp to key 0, got %#x", lo)
	}
	hi := MortonKey(domain, vec.V3{X: 100, Y: 100, Z: 100})
	if hi != KeySpace-1 {
		t.Fatalf("far high corner should clamp to KeySpace-1, got %#x", hi)
	}
	// Outside points clamp rather than wrap.
	if hi != MortonKey(domain, vec.V3{X: 1, Y: 1, Z: 1}) {
		t.Fatalf("far-high key %#x does not clamp like the max corner", hi)
	}
}

// TestMortonKeyOrderIsSpatial pins the property the shard map depends
// on: along each axis, keys are monotone in the quantized coordinate, so
// contiguous key ranges are spatially contiguous.
func TestMortonKeyOrderIsSpatial(t *testing.T) {
	domain := vec.Cube{Size: 1}
	prev := uint64(0)
	for i := 0; i < 16; i++ {
		// March along the main diagonal: Morton order visits diagonal
		// cells in increasing key order.
		f := (float64(i)+0.5)/16 - 0.5
		k := MortonKey(domain, vec.V3{X: f, Y: f, Z: f})
		if i > 0 && k <= prev {
			t.Fatalf("diagonal step %d: key %#x not past %#x", i, k, prev)
		}
		prev = k
	}
}

// TestMortonOrderingMatchesOctants: points in lower octants of the root
// sort before points in higher octants — Morton order is the octree's
// child order.
func TestMortonOrderingMatchesOctants(t *testing.T) {
	c := vec.Cube{Size: 2}
	var prev uint64
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		key := MortonKey(c, c.Child(o).Center)
		if o > 0 && key <= prev {
			t.Fatalf("octant %d key %d not above octant %d key %d", o, key, o-1, prev)
		}
		prev = key
	}
}

func checkOrder(t *testing.T, name string, pos []vec.V3, domain vec.Cube) {
	t.Helper()
	got, want := Order(pos, domain), refOrder(pos, domain)
	if len(got) != len(want) {
		t.Fatalf("%s: Order returned %d indices for %d positions", name, len(got), len(pos))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: Order[%d] = %d, comparison sort on (key, index) has %d", name, i, got[i], want[i])
		}
	}
}

// TestOrderMatchesComparisonSort: the radix kernel returns, element for
// element, what sort.Slice on (key, index) returns — on every model, on
// sizes around the histogram width, and where ties decide the order.
func TestOrderMatchesComparisonSort(t *testing.T) {
	for _, m := range phys.Models() {
		for _, n := range []int{0, 1, 2, 7, 4097, 50000} {
			b := phys.Generate(m, n, 11)
			checkOrder(t, fmt.Sprintf("%v n=%d", m, n), b.Pos, b.Bounds(1e-4))
		}
	}

	// Many duplicate positions: 5000 bodies on 37 sites, so almost every
	// comparison is a tie and must come out in index order.
	r := rand.New(rand.NewSource(5))
	sites := phys.Generate(phys.ModelUniform, 37, 5).Pos
	dup := make([]vec.V3, 5000)
	for i := range dup {
		dup[i] = sites[r.Intn(len(sites))]
	}
	checkOrder(t, "duplicates", dup, vec.Cube{Center: vec.V3{X: 0.5, Y: 0.5, Z: 0.5}, Size: 1.001})

	same := make([]vec.V3, 3000)
	for i := range same {
		same[i] = vec.V3{X: 0.25, Y: -3, Z: 7}
	}
	domain := vec.Cube{Center: same[0], Size: 1}
	checkOrder(t, "all identical", same, domain)
	for i, b := range Order(same, domain) {
		if int(b) != i {
			t.Fatalf("all identical: Order[%d] = %d, want index order", i, b)
		}
	}

	// Every body outside the domain: the keys clamp onto its faces.
	out := phys.Generate(phys.ModelPlummer, 2000, 9).Pos
	checkOrder(t, "outside", out, vec.Cube{Center: vec.V3{X: 40, Y: 40, Z: 40}, Size: 0.5})
}

// FuzzOrder turns arbitrary bytes into a domain and positions (inside
// and outside it, six bytes per body) and checks what callers rely on:
// the result is a permutation of 0..n-1 ordered by (key, index).
func FuzzOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 255, 255, 255, 255, 255, 255})
	f.Add(make([]byte, 4+6*300))
	f.Fuzz(func(t *testing.T, data []byte) {
		domain := vec.Cube{Size: 1}
		if len(data) >= 4 {
			domain.Center = vec.V3{X: float64(int8(data[0])), Y: float64(int8(data[1])), Z: float64(int8(data[2]))}
			domain.Size = math.Ldexp(1, int(data[3]%16)-8)
			data = data[4:]
		}
		pos := make([]vec.V3, len(data)/6)
		coord := func(b []byte, c float64) float64 {
			return c + (float64(binary.LittleEndian.Uint16(b))/65535-0.5)*1.25*domain.Size
		}
		for i := range pos {
			b := data[6*i:]
			pos[i] = vec.V3{X: coord(b, domain.Center.X), Y: coord(b[2:], domain.Center.Y), Z: coord(b[4:], domain.Center.Z)}
		}

		order := Order(pos, domain)
		if len(order) != len(pos) {
			t.Fatalf("Order returned %d indices for %d positions", len(order), len(pos))
		}
		seen := make([]bool, len(pos))
		k := NewKeyer(domain)
		for j, i := range order {
			if i < 0 || int(i) >= len(pos) || seen[i] {
				t.Fatalf("Order[%d] = %d: not a permutation of 0..%d", j, i, len(pos)-1)
			}
			seen[i] = true
			if j == 0 {
				continue
			}
			prev := order[j-1]
			switch kp, ki := k.Key(pos[prev]), k.Key(pos[i]); {
			case kp > ki:
				t.Fatalf("keys decrease at %d: %#x then %#x", j, kp, ki)
			case kp == ki && prev > i:
				t.Fatalf("equal keys out of index order at %d: body %d before %d", j, prev, i)
			}
		}
	})
}
