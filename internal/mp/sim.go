package mp

import (
	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/phys"
	"partree/internal/vec"
)

// Options configure the message-passing run. Step takes every field as
// given: P ≥ 1 ranks, leaf capacity, force parameters and time step.
type Options struct {
	P       int
	LeafCap int
	Force   force.Params
	Dt      float64
}

// RankStats is one rank's counters for a step.
type RankStats struct {
	Bodies       int
	Interactions int64
	MsgsSent     int64
	BytesSent    int64
	RemoteItems  int // mass points + bodies received
}

// StepStats is one message-passing time step's per-rank work and traffic —
// what the harness prices on each simulated platform.
type StepStats struct {
	PerRank []RankStats
}

// TotalBytes sums bytes sent by all ranks.
func (s StepStats) TotalBytes() int64 {
	var t int64
	for _, r := range s.PerRank {
		t += r.BytesSent
	}
	return t
}

// TotalInteractions sums force interactions across ranks.
func (s StepStats) TotalInteractions() int64 {
	var t int64
	for _, r := range s.PerRank {
		t += r.Interactions
	}
	return t
}

// letMsg is the payload one rank ships to another.
type letMsg struct {
	points []MassPoint
	bodies []RemoteBody
}

// Step advances the system one time step with the message-passing
// structure: ORB domain decomposition, per-rank local trees over private
// stores (separate "address spaces"), all-to-all locally-essential-tree
// exchange over channels, then fully local force evaluation and update.
func Step(b *phys.Bodies, opts Options) StepStats {
	p := opts.P
	st := StepStats{PerRank: make([]RankStats, p)}
	doms := ORB(b, p)

	// Global root cube: in a real MP code this is an allreduce over the
	// per-rank bounds (counted as one message per rank).
	cube := b.Bounds(vec.RootMargin)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}

	// Phase 1: local trees + LET exchange. Every pair of ranks gets a
	// buffered channel; rank r computes the essential set of its tree
	// for every other domain and sends it.
	trees := make([]*octree.Tree, p)
	inbox := make([]chan letMsg, p)
	for r := range inbox {
		inbox[r] = make(chan letMsg, p)
	}
	par.Do(p, func(r int) {
		s := octree.NewStore(1, opts.LeafCap)
		tr := octree.NewTree(s, 0, r, cube)
		for _, i := range doms[r].Bodies {
			s.Insert(tr.Root, 0, 0, r, i, b.Pos)
		}
		octree.ComputeMomentsSerial(tr, d)
		trees[r] = tr
		st.PerRank[r].Bodies = len(doms[r].Bodies)

		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			mps, rbs := Essential(tr, d, doms[q].Box, opts.Force.Theta)
			st.PerRank[r].MsgsSent++
			st.PerRank[r].BytesSent += letBytes(mps, rbs)
			inbox[q] <- letMsg{points: mps, bodies: rbs}
		}
		// The allreduce for the root bounds.
		st.PerRank[r].MsgsSent++
		st.PerRank[r].BytesSent += 48
	})

	// Phase 2: force evaluation, fully local. The received mass points
	// and bodies become a second, remote tree each rank traverses with
	// the ordinary θ criterion — the locally essential tree proper.
	par.Do(p, func(r int) {
		var rpos []vec.V3
		var rmass []float64
		for q := 0; q < p-1; q++ {
			m := <-inbox[r]
			for _, pt := range m.points {
				rpos = append(rpos, pt.COM)
				rmass = append(rmass, pt.Mass)
			}
			for _, rb := range m.bodies {
				rpos = append(rpos, rb.Pos)
				rmass = append(rmass, rb.Mass)
			}
		}
		var rtree *octree.Tree
		rd := octree.BodyData{Pos: rpos, Mass: rmass}
		if len(rpos) > 0 {
			rtree = octree.BuildSerial(rpos, opts.LeafCap)
			octree.ComputeMomentsSerial(rtree, rd)
		}
		st.PerRank[r].RemoteItems = len(rpos)

		var inter int64
		for _, i := range doms[r].Bodies {
			res := force.Accel(trees[r], d, i, opts.Force)
			acc := res.Acc
			cost := res.Interactions
			if rtree != nil {
				rres := force.AccelAt(rtree, rd, b.Pos[i], opts.Force)
				acc = acc.Add(rres.Acc)
				cost += rres.Interactions
			}
			inter += cost
			b.Acc[i] = acc
			b.Cost[i] = cost
		}
		st.PerRank[r].Interactions = inter
	})

	// Phase 3: update, each rank its own bodies.
	par.Do(p, func(r int) { b.Advance(doms[r].Bodies, opts.Dt) })
	return st
}
