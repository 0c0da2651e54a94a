package mp

import (
	"sync"
	"time"

	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

// Options configure the message-passing run.
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
	TreeNodes    int // local tree size
	RemoteItems  int // mass points + bodies received
}

// StepStats summarizes one message-passing time step.
type StepStats struct {
	ORB     time.Duration
	Tree    time.Duration // local builds + LET exchange
	Force   time.Duration
	Update  time.Duration
	PerRank []RankStats
}

// Total is the step's wall-clock total.
func (s StepStats) Total() time.Duration { return s.ORB + s.Tree + s.Force + s.Update }

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

// letMsg is the payload rank src ships to rank dst.
type letMsg struct {
	src    int
	points []MassPoint
	bodies []RemoteBody
}

// Step advances the system one time step with the message-passing
// structure: ORB domain decomposition, per-rank local trees over private
// stores (separate "address spaces"), all-to-all locally-essential-tree
// exchange over channels, then fully local force evaluation and update.
func Step(b *phys.Bodies, opts Options) StepStats {
	if opts.P <= 0 {
		opts.P = 1
	}
	if opts.LeafCap <= 0 {
		opts.LeafCap = 8
	}
	if opts.Force.Theta == 0 {
		opts.Force = force.DefaultParams()
	}
	if opts.Dt == 0 {
		opts.Dt = 0.025
	}
	p := opts.P
	st := StepStats{PerRank: make([]RankStats, p)}

	t0 := time.Now()
	doms := ORB(b, p)
	t1 := time.Now()

	// Global root cube: in a real MP code this is an allreduce over the
	// per-rank bounds (counted as one message per rank).
	cube := b.Bounds(1e-4)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}

	// Phase 1: local trees + LET exchange. Every pair of ranks gets a
	// buffered channel; rank r computes the essential set of its tree
	// for every other domain and sends it.
	trees := make([]*octree.Tree, p)
	inbox := make([]chan letMsg, p)
	for r := range inbox {
		inbox[r] = make(chan letMsg, p)
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := octree.NewStore(1, opts.LeafCap)
			tr := octree.NewTree(s, 0, r, cube)
			for _, i := range doms[r].Bodies {
				s.Insert(tr.Root, 0, 0, r, i, b.Pos)
			}
			octree.ComputeMomentsSerial(tr, d)
			trees[r] = tr
			st.PerRank[r].Bodies = len(doms[r].Bodies)
			cells, leaves := octree.CountNodes(tr)
			st.PerRank[r].TreeNodes = cells + leaves

			for q := 0; q < p; q++ {
				if q == r {
					continue
				}
				mps, rbs := Essential(tr, d, doms[q].Box, opts.Force.Theta)
				st.PerRank[r].MsgsSent++
				st.PerRank[r].BytesSent += letBytes(mps, rbs)
				inbox[q] <- letMsg{src: r, points: mps, bodies: rbs}
			}
			// The allreduce for the root bounds.
			st.PerRank[r].MsgsSent++
			st.PerRank[r].BytesSent += 48
		}(r)
	}
	wg.Wait()
	t2 := time.Now()

	// Phase 2: force evaluation, fully local. The received mass points
	// and bodies become a second, remote tree each rank traverses with
	// the ordinary θ criterion — the locally essential tree proper.
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
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
		}(r)
	}
	wg.Wait()
	t3 := time.Now()

	// Phase 3: update, each rank its own bodies.
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, i := range doms[r].Bodies {
				b.Vel[i] = b.Vel[i].MulAdd(opts.Dt, b.Acc[i])
				b.Pos[i] = b.Pos[i].MulAdd(opts.Dt, b.Vel[i])
			}
		}(r)
	}
	wg.Wait()
	t4 := time.Now()

	st.ORB = t1.Sub(t0)
	st.Tree = t2.Sub(t1)
	st.Force = t3.Sub(t2)
	st.Update = t4.Sub(t3)
	return st
}
