// Package vec provides the small fixed-dimension geometry kit used by the
// rest of the tree-building code: 3-component vectors, axis-aligned cubes,
// and octant arithmetic.
//
// Everything here is a value type; the hot loops of the force calculation
// and tree build call these functions billions of times, so all methods are
// allocation-free and written so the compiler can inline them.
package vec

import (
	"fmt"
	"math"
)

// V3 is a 3-component double-precision vector.
type V3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v V3) Add(w V3) V3 { return V3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v V3) Sub(w V3) V3 { return V3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v V3) Scale(s float64) V3 { return V3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v V3) Dot(w V3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector cross product v×w.
func (v V3) Cross(w V3) V3 {
	return V3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Len2 returns |v|².
func (v V3) Len2() float64 { return v.Dot(v) }

// Len returns |v|.
func (v V3) Len() float64 { return math.Sqrt(v.Len2()) }

// Dist2 returns |v-w|².
func (v V3) Dist2(w V3) float64 {
	dx, dy, dz := v.X-w.X, v.Y-w.Y, v.Z-w.Z
	return dx*dx + dy*dy + dz*dz
}

// Dist returns |v-w|.
func (v V3) Dist(w V3) float64 { return math.Sqrt(v.Dist2(w)) }

// Neg returns -v.
func (v V3) Neg() V3 { return V3{-v.X, -v.Y, -v.Z} }

// MulAdd returns v + s*w, the fused form used by the integrator.
func (v V3) MulAdd(s float64, w V3) V3 {
	return V3{v.X + s*w.X, v.Y + s*w.Y, v.Z + s*w.Z}
}

// Min returns the componentwise minimum of v and w. Min, Max and
// MaxComponent compare with < and >, not math.Min/math.Max: their
// callers bound body positions and extents, which are finite
// (phys.Bodies.Validate), so NaN propagation is not needed, and no
// caller can observe which of -0 and +0 a tie between them returns.
func (v V3) Min(w V3) V3 {
	if w.X < v.X {
		v.X = w.X
	}
	if w.Y < v.Y {
		v.Y = w.Y
	}
	if w.Z < v.Z {
		v.Z = w.Z
	}
	return v
}

// Max returns the componentwise maximum of v and w (see Min).
func (v V3) Max(w V3) V3 {
	if w.X > v.X {
		v.X = w.X
	}
	if w.Y > v.Y {
		v.Y = w.Y
	}
	if w.Z > v.Z {
		v.Z = w.Z
	}
	return v
}

// MaxComponent returns the largest of the three components (see Min).
func (v V3) MaxComponent() float64 {
	m := v.X
	if v.Y > m {
		m = v.Y
	}
	if v.Z > m {
		m = v.Z
	}
	return m
}

// IsFinite reports whether all components are finite numbers.
func (v V3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String renders v for diagnostics.
func (v V3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }
