package main

import (
	"math/rand"
	"time"
)

// The yardstick is a fixed piece of work the benchmark times throughout
// a run, between the slices of real work: a frozen serial octree insert
// of the same pseudo-random points, allocation-free, about two
// milliseconds. It exists because of the host. On a shared guest,
// interference comes in two kinds: fast jitter that hits single
// operations, which a median over a slice ignores, and slow regimes that
// last from seconds to the better part of an hour and slow everything
// that goes to memory, while arithmetic runs as fast as ever (README,
// "Noise"). Single-threaded work is slowed as the yardstick is, so a
// request's latency is reported as a multiple of the yardstick timed in
// the same seconds (req_p50_rel: 25 % spread in milliseconds, 2-5 %
// relative). In-process parallel work is slowed two to three times as
// much, so space_build_rel and step_rel only inform. A change to the
// program under test cannot move the yardstick: it calls nothing outside
// this file.

const (
	yardPoints = 12000
	yardStride = 9 // int32 words per node: eight children and the point of a leaf
	yardBurst  = 7 // runs per burst
)

type yardstick struct {
	pts   [][3]float64
	nodes []int32   // yardStride words per node: kids[0..8), point
	used  int       // nodes of the last run; the same on every run
	runs  []float64 // every timed run, ms
	cyc   []int     // the cycle each run was timed in
}

func newYardstick() *yardstick {
	r := rand.New(rand.NewSource(20260927))
	y := &yardstick{pts: make([][3]float64, yardPoints), nodes: make([]int32, 2*yardPoints*yardStride)}
	for i := range y.pts {
		// Clustered towards a corner, so the tree has some depth.
		y.pts[i] = [3]float64{r.Float64() * r.Float64(), r.Float64() * r.Float64(), r.Float64()}
	}
	y.build() // touch the node pool once
	return y
}

// node takes the next node from the pool and makes it a leaf of point b
// (an empty cell for b < 0).
func (y *yardstick) node(b int32) int32 {
	n := y.used
	y.used++
	clear(y.nodes[n*yardStride : n*yardStride+8])
	y.nodes[n*yardStride+8] = b
	return int32(n)
}

// build inserts every point into an empty tree, splitting a leaf when a
// second point reaches it.
func (y *yardstick) build() {
	y.used = 0
	y.node(-1)
	for i := range y.pts {
		y.insert(int32(i))
	}
}

func (y *yardstick) insert(b int32) {
	n, lo, size := 0, [3]float64{}, 1.0
	for {
		size /= 2
		kid := &y.nodes[n*yardStride+octant(y.pts[b], &lo, size)]
		if *kid == 0 { // empty: the root is never a child
			*kid = y.node(b)
			return
		}
		n = int(*kid)
		if old := y.nodes[n*yardStride+8]; old >= 0 {
			// A leaf: it becomes a cell and its point moves one level down.
			y.nodes[n*yardStride+8] = -1
			sub := lo
			y.nodes[n*yardStride+octant(y.pts[old], &sub, size/2)] = y.node(old)
		}
	}
}

// octant returns the child octant of p in the cell at lo whose children
// have the given size, and moves lo to that child's corner.
func octant(p [3]float64, lo *[3]float64, size float64) int {
	o := 0
	for a := 0; a < 3; a++ {
		if p[a] >= lo[a]+size {
			o |= 1 << a
			lo[a] += size
		}
	}
	return o
}

// burst times yardBurst runs back to back in cycle c: a sample of how
// fast this host is right now.
func (y *yardstick) burst(c int) {
	for i := 0; i < yardBurst; i++ {
		t0 := time.Now()
		y.build()
		y.runs = append(y.runs, ms(time.Since(t0)))
		y.cyc = append(y.cyc, c)
	}
}

// perCycle returns, for each of n cycles, the median of the runs timed
// in it and in its two neighbours, in milliseconds: regimes last seconds,
// a cycle less than one, and three cycles give the median enough runs.
func (y *yardstick) perCycle(n int) []float64 {
	out := make([]float64, n)
	for c := range out {
		var near []float64
		for i, rc := range y.cyc {
			if rc >= c-1 && rc <= c+1 {
				near = append(near, y.runs[i])
			}
		}
		out[c] = median(near)
	}
	return out
}
