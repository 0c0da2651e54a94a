package phys

import "math"

// Kick applies half a velocity update: v += acc * dt/2 for bodies in
// [lo,hi). The leapfrog scheme used by BARNES is kick-drift-kick; callers
// split the range so processors update only their assigned bodies, exactly
// the "update phase" of the paper.
func (b *Bodies) Kick(lo, hi int, dt float64) {
	h := dt / 2
	for i := lo; i < hi; i++ {
		b.Vel[i] = b.Vel[i].MulAdd(h, b.Acc[i])
	}
}

// Drift advances positions: x += v * dt for bodies in [lo,hi).
func (b *Bodies) Drift(lo, hi int, dt float64) {
	for i := lo; i < hi; i++ {
		b.Pos[i] = b.Pos[i].MulAdd(dt, b.Vel[i])
	}
}

// Advance is the application's update phase for the bodies listed in idx:
// symplectic Euler, v += acc·dt then x += v·dt. Every time-stepping loop —
// native, simulated and message-passing — advances each processor's own
// bodies through it.
func (b *Bodies) Advance(idx []int32, dt float64) {
	for _, i := range idx {
		b.Vel[i] = b.Vel[i].MulAdd(dt, b.Acc[i])
		b.Pos[i] = b.Pos[i].MulAdd(dt, b.Vel[i])
	}
}

// KineticEnergy returns the total kinetic energy ½Σmv².
func (b *Bodies) KineticEnergy() float64 {
	var ke float64
	for i := range b.Vel {
		ke += 0.5 * b.Mass[i] * b.Vel[i].Len2()
	}
	return ke
}

// PotentialEnergy returns the exact pairwise potential -ΣΣ m_i m_j / r_ij
// with Plummer softening eps. O(N²): used by tests and diagnostics only.
func (b *Bodies) PotentialEnergy(eps float64) float64 {
	var pe float64
	e2 := eps * eps
	for i := 0; i < b.N(); i++ {
		for j := i + 1; j < b.N(); j++ {
			d2 := b.Pos[i].Dist2(b.Pos[j]) + e2
			pe -= b.Mass[i] * b.Mass[j] / math.Sqrt(d2)
		}
	}
	return pe
}
