package partition

import "partree/internal/vec"

// The Morton keying below is the one spatial-ordering primitive every
// layer shares, and this file is its only implementation: Keyer turns a
// position into a Z-order key, Order sorts a body set by that key. The
// callers are core.SortBodies (which makes Order's result the storage
// order of every native body set: the runner's memo, nbody.New,
// core.Stepper), core's assignment of a generator-order set, the
// simulated SPACE replay's subspace-to-processor assignment
// (simalg's assignSubspaces), and — at the cluster level — the shard
// map that splits the domain into spatially contiguous key ranges
// (cluster.Map), where every shard must compute the same key for the
// same position so the owned subsets tile the body set.

const (
	// KeyBits is the number of bits quantized per axis; a full key
	// interleaves three axes into 3*KeyBits bits.
	KeyBits = 16
	// KeySpace is one past the largest possible Morton key: keys lie in
	// [0, KeySpace). Shard maps partition exactly this interval.
	KeySpace = uint64(1) << (3 * KeyBits)
)

// Keyer computes Morton keys against one domain cube. It holds the
// cube's low corner and the cells-per-unit-length scale, so keying a
// body set pays for them once instead of once per body.
type Keyer struct {
	min   vec.V3
	scale float64
}

// NewKeyer returns the keyer of a domain cube.
func NewKeyer(domain vec.Cube) Keyer {
	return Keyer{min: domain.Min(), scale: float64(uint64(1)<<KeyBits) / domain.Size}
}

// Key returns the Z-order (Morton) key of p within the keyer's domain,
// using KeyBits bits per axis. Sorting spatial positions by their
// Morton key recovers the octree's depth-first order, so contiguous key
// ranges are spatially compact — the property that makes both SPACE's
// subspace grouping (paper Figure 5) and a cluster's Morton-range shard
// map locality-preserving. Positions outside the domain clamp to its
// faces and a NaN coordinate quantizes to 0, so every position maps to
// some key and key comparisons stay total.
//
// Two positions compare equal once they quantize to the same cell of the
// 2^KeyBits-per-axis grid; callers that need a deterministic total order
// break ties on index, as Order does.
func (k Keyer) Key(p vec.V3) uint64 {
	return spread3(quantizeKey((p.X-k.min.X)*k.scale)) |
		spread3(quantizeKey((p.Y-k.min.Y)*k.scale))<<1 |
		spread3(quantizeKey((p.Z-k.min.Z)*k.scale))<<2
}

// MortonKey is NewKeyer(domain).Key(p), for callers keying one position.
func MortonKey(domain vec.Cube, p vec.V3) uint64 {
	return NewKeyer(domain).Key(p)
}

// quantizeKey clamps a scaled coordinate into [0, 2^KeyBits).
func quantizeKey(x float64) uint64 {
	const max = 1<<KeyBits - 1
	if x != x || x < 0 { // NaN or below the low face
		return 0
	}
	if x > max {
		return max
	}
	return uint64(x)
}

// spread3 moves bit i of a KeyBits-bit value to bit 3i. Each step
// doubles the number of groups the bits sit in and halves their width
// (16 → 8 → 4 → 2 → 1), masking away the copies the shift left behind.
func spread3(q uint64) uint64 {
	q = (q | q<<16) & 0x0000ff0000ff
	q = (q | q<<8) & 0x00f00f00f00f
	q = (q | q<<4) & 0x0c30c30c30c3
	q = (q | q<<2) & 0x249249249249
	return q
}

const (
	// digitBits is the radix of Order's sort: 3*KeyBits = 48 key bits in
	// four passes, with histograms (4 × 4096 counters) that stay in L1.
	// Order's keying loop counts each pass's digit on its own line, so
	// changing the pass count means editing those lines too.
	digitBits = 12
	passes    = 3 * KeyBits / digitBits
	digitMask = 1<<digitBits - 1
)

// Order returns the indices of pos sorted by (Morton key within domain,
// index): the body order whose contiguous ranges are spatially compact.
// It keys every position once and runs a stable least-significant-digit
// radix sort of the indices over the key bits; a stable sort of
// index-ordered input leaves equal keys in increasing index, so the
// result is the one a comparison sort on (key, index) produces. Scratch
// is the key array and one spare index array, released on return.
func Order(pos []vec.V3, domain vec.Cube) []int32 {
	return new(Sorter).Order(pos, domain)
}

// Sorter is Order with its scratch kept: the key array and both index
// arrays, grown to the largest set sorted. A caller that re-sorts one
// body set keeps a Sorter and allocates nothing after the first sort.
type Sorter struct {
	keys     []uint64
	src, dst []int32
}

// Order is partition.Order into s's arrays. The result is one of them:
// it holds until the next call.
func (s *Sorter) Order(pos []vec.V3, domain vec.Cube) []int32 {
	n := len(pos)
	if cap(s.keys) < n {
		s.keys, s.src, s.dst = make([]uint64, n), make([]int32, n), make([]int32, n)
	}
	k := NewKeyer(domain)
	keys, src, dst := s.keys[:n], s.src[:n], s.dst[:n]
	var hist [passes][1 << digitBits]int32
	for i, p := range pos {
		key := k.Key(p)
		keys[i], src[i] = key, int32(i)
		hist[0][key&digitMask]++
		hist[1][key>>digitBits&digitMask]++
		hist[2][key>>(2*digitBits)&digitMask]++
		hist[3][key>>(3*digitBits)&digitMask]++
	}
	for d := range hist {
		h := &hist[d]
		shift := d * digitBits
		sum := int32(0)
		for b, c := range h {
			h[b], sum = sum, sum+c
		}
		for _, i := range src {
			b := keys[i] >> shift & digitMask
			dst[h[b]] = i
			h[b]++
		}
		src, dst = dst, src
	}
	return src
}
