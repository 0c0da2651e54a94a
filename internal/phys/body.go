// Package phys holds the physical state of an N-body system: the bodies
// themselves, initial-condition generators (Plummer sphere, uniform cube,
// colliding clusters), the leapfrog integrator, and energy diagnostics.
//
// Bodies are stored in structure-of-arrays form. The SPLASH-2 BARNES code
// keeps bodies in flat shared arrays for locality, and the paper's
// tree-building algorithms are described in terms of body indices moving
// between per-processor pointer arrays; a SoA store reproduces both the
// access pattern and the sharing granularity that the platform simulator
// needs to model.
package phys

import (
	"fmt"
	"unsafe"

	"partree/internal/vec"
)

// Bodies is a structure-of-arrays collection of N bodies.
type Bodies struct {
	Pos  []vec.V3  // position
	Vel  []vec.V3  // velocity
	Acc  []vec.V3  // acceleration from the most recent force pass
	Mass []float64 // gravitational mass
	// Cost is the interaction count each body incurred in the previous
	// force pass. Costzones partitioning consumes it; the tree builders
	// carry it across steps exactly as the SPLASH codes do.
	Cost []int64
	// ID is each slot's generator index: the body in slot i is the one
	// the generator (or snapshot) produced at index ID[i]. It is the
	// identity until Permute reorders the set, and it is what lets a
	// holder of generator-indexed data (a client streaming positions)
	// address bodies whose storage order has changed.
	ID []int32
}

// NewBodies allocates storage for n bodies with zeroed state, in
// generator order (ID[i] = i).
func NewBodies(n int) *Bodies {
	b := &Bodies{
		Pos:  make([]vec.V3, n),
		Vel:  make([]vec.V3, n),
		Acc:  make([]vec.V3, n),
		Mass: make([]float64, n),
		Cost: make([]int64, n),
		ID:   make([]int32, n),
	}
	for i := range b.ID {
		b.ID[i] = int32(i)
	}
	return b
}

// N returns the number of bodies.
func (b *Bodies) N() int { return len(b.Pos) }

// Bytes is the memory the set's per-body columns hold: one element of
// each slice per body (92 B). A nil set holds none.
func (b *Bodies) Bytes() int64 {
	if b == nil {
		return 0
	}
	const perBody = 3*unsafe.Sizeof(vec.V3{}) + unsafe.Sizeof(float64(0)) +
		unsafe.Sizeof(int64(0)) + unsafe.Sizeof(int32(0))
	return int64(b.N()) * int64(perBody)
}

// TotalMass returns the summed mass of all bodies.
func (b *Bodies) TotalMass() float64 {
	var m float64
	for _, v := range b.Mass {
		m += v
	}
	return m
}

// CenterOfMass returns the mass-weighted mean position, or the zero vector
// for an empty or massless system.
func (b *Bodies) CenterOfMass() vec.V3 {
	var com vec.V3
	var m float64
	for i := range b.Pos {
		com = com.MulAdd(b.Mass[i], b.Pos[i])
		m += b.Mass[i]
	}
	if m == 0 {
		return vec.V3{}
	}
	return com.Scale(1 / m)
}

// Momentum returns the total linear momentum.
func (b *Bodies) Momentum() vec.V3 {
	var p vec.V3
	for i := range b.Vel {
		p = p.MulAdd(b.Mass[i], b.Vel[i])
	}
	return p
}

// Bounds returns a cube containing all body positions, expanded by margin
// (see vec.BoundingCube).
func (b *Bodies) Bounds(margin float64) vec.Cube {
	return vec.BoundingCube(b.N(), func(i int) vec.V3 { return b.Pos[i] }, margin)
}

// Clone deep-copies the body set.
func (b *Bodies) Clone() *Bodies {
	c := NewBodies(b.N())
	copy(c.Pos, b.Pos)
	copy(c.Vel, b.Vel)
	copy(c.Acc, b.Acc)
	copy(c.Mass, b.Mass)
	copy(c.Cost, b.Cost)
	copy(c.ID, b.ID)
	return c
}

// Permute reorders the set in place so that slot j holds the body that
// was in slot order[j]; order must be a permutation of 0..N-1. Every
// column moves with its body — ID included, so ID keeps naming each
// slot's generator index and a second Permute composes with the first.
// The slice headers stay put (holders of b.Pos keep seeing the set).
// It walks the permutation's cycles, moving each body once, so its only
// scratch is one bit per slot marking the slots already filled.
func (b *Bodies) Permute(order []int32) {
	n := b.N()
	if len(order) != n {
		panic(fmt.Sprintf("phys: Permute order has %d entries for %d bodies", len(order), n))
	}
	filled := make([]uint64, (n+63)/64)
	isFilled := func(j int) bool { return filled[j>>6]&(1<<(j&63)) != 0 }
	for start := range order {
		if isFilled(start) {
			continue
		}
		held := b.row(start)
		for j := start; ; {
			filled[j>>6] |= 1 << (j & 63)
			i := int(order[j])
			if i == start {
				b.setRow(j, held)
				break
			}
			if isFilled(i) {
				panic(fmt.Sprintf("phys: Permute order names slot %d twice", i))
			}
			b.setRow(j, b.row(i))
			j = i
		}
	}
}

// row is one body across every column: the unit Permute moves.
type row struct {
	pos, vel, acc vec.V3
	mass          float64
	cost          int64
	id            int32
}

func (b *Bodies) row(i int) row {
	return row{b.Pos[i], b.Vel[i], b.Acc[i], b.Mass[i], b.Cost[i], b.ID[i]}
}

func (b *Bodies) setRow(j int, r row) {
	b.Pos[j], b.Vel[j], b.Acc[j], b.Mass[j], b.Cost[j], b.ID[j] = r.pos, r.vel, r.acc, r.mass, r.cost, r.id
}

// Validate checks the store for internal consistency (parallel slices of
// equal length, finite positions and velocities, non-negative masses, ID
// a permutation of the generator indices).
func (b *Bodies) Validate() error {
	n := len(b.Pos)
	if len(b.Vel) != n || len(b.Acc) != n || len(b.Mass) != n || len(b.Cost) != n || len(b.ID) != n {
		return fmt.Errorf("phys: slice lengths diverge: pos=%d vel=%d acc=%d mass=%d cost=%d id=%d",
			len(b.Pos), len(b.Vel), len(b.Acc), len(b.Mass), len(b.Cost), len(b.ID))
	}
	seen := make([]bool, n)
	for i, id := range b.ID {
		if id < 0 || int(id) >= n || seen[id] {
			return fmt.Errorf("phys: slot %d has ID %d: not a permutation of 0..%d", i, id, n-1)
		}
		seen[id] = true
	}
	for i := 0; i < n; i++ {
		if !b.Pos[i].IsFinite() {
			return fmt.Errorf("phys: body %d has non-finite position %v", i, b.Pos[i])
		}
		if !b.Vel[i].IsFinite() {
			return fmt.Errorf("phys: body %d has non-finite velocity %v", i, b.Vel[i])
		}
		if b.Mass[i] < 0 {
			return fmt.Errorf("phys: body %d has negative mass %g", i, b.Mass[i])
		}
	}
	return nil
}
