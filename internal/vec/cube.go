package vec

import "fmt"

// Cube is an axis-aligned cube described by its center and edge length.
// Barnes-Hut octrees subdivide cubes, never general boxes, so a center plus
// a single size is the exact representation: it halves without rounding
// drift and an octant index recovers a child exactly.
type Cube struct {
	Center V3
	Size   float64 // full edge length
}

// Octant identifies one of the eight children of a cube. Bit 0 selects the
// +X half, bit 1 the +Y half, bit 2 the +Z half.
type Octant uint8

// NOctants is the number of children of an internal octree cell.
const NOctants = 8

// OctantOf returns the octant of c that contains p. Points exactly on a
// splitting plane go to the positive side, so every point in the cube maps
// to exactly one octant.
func (c Cube) OctantOf(p V3) Octant {
	var o Octant
	if p.X >= c.Center.X {
		o |= 1
	}
	if p.Y >= c.Center.Y {
		o |= 2
	}
	if p.Z >= c.Center.Z {
		o |= 4
	}
	return o
}

// Child returns the sub-cube for octant o.
func (c Cube) Child(o Octant) Cube {
	q := c.Size / 4
	ctr := c.Center
	if o&1 != 0 {
		ctr.X += q
	} else {
		ctr.X -= q
	}
	if o&2 != 0 {
		ctr.Y += q
	} else {
		ctr.Y -= q
	}
	if o&4 != 0 {
		ctr.Z += q
	} else {
		ctr.Z -= q
	}
	return Cube{Center: ctr, Size: c.Size / 2}
}

// Contains reports whether p lies inside c under the octree's half-open
// convention: the low faces are inclusive, the high faces exclusive. This
// matches OctantOf, so Contains(p) implies Child(OctantOf(p)).Contains(p).
func (c Cube) Contains(p V3) bool {
	h := c.Size / 2
	return p.X >= c.Center.X-h && p.X < c.Center.X+h &&
		p.Y >= c.Center.Y-h && p.Y < c.Center.Y+h &&
		p.Z >= c.Center.Z-h && p.Z < c.Center.Z+h
}

// Min returns the low corner of the cube.
func (c Cube) Min() V3 {
	h := c.Size / 2
	return V3{c.Center.X - h, c.Center.Y - h, c.Center.Z - h}
}

// Max returns the high corner of the cube.
func (c Cube) Max() V3 {
	h := c.Size / 2
	return V3{c.Center.X + h, c.Center.Y + h, c.Center.Z + h}
}

// String renders the cube for diagnostics.
func (c Cube) String() string {
	return fmt.Sprintf("cube{center=%v size=%g}", c.Center, c.Size)
}

// RootMargin expands a root cube (relative) so no body sits on its
// faces. Every builder, the serial reference and every keying cube use
// this one value, so their cubes agree bit for bit.
const RootMargin = 1e-4

// BoundingCube returns the smallest cube, expanded by the given relative
// margin, that contains every position produced by the iterator: the
// BoxCube of the positions' bounding box. A margin such as RootMargin
// keeps extreme bodies strictly inside the half-open root so the
// builders never have to grow the root mid-build (the SPLASH codes size
// the root once per step the same way).
func BoundingCube(n int, pos func(i int) V3, margin float64) Cube {
	var lo, hi V3
	if n > 0 {
		lo, hi = pos(0), pos(0)
	}
	for i := 1; i < n; i++ {
		p := pos(i)
		lo = lo.Min(p)
		hi = hi.Max(p)
	}
	return BoxCube(lo, hi, margin)
}

// BoxCube turns the box [lo, hi] into a root cube: centered on the box's
// midpoint, its side the box's largest extent expanded by margin. A box
// of no extent (no bodies, or all coincident) gets side 1.
func BoxCube(lo, hi V3, margin float64) Cube {
	size := hi.Sub(lo).MaxComponent() * (1 + margin)
	if size <= 0 {
		size = 1 // any positive size works
	}
	return Cube{Center: lo.Add(hi).Scale(0.5), Size: size}
}
