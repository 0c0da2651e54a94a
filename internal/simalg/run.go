package simalg

import (
	"fmt"
	"strconv"
	"strings"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/memsim"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/vec"
)

const chunkLen = 64 // addresses per batched access

// runState is the shared state of one simulated run. The engine executes
// at most one simulated processor at a time, and all cross-processor
// handoffs happen across simulated barriers, so plain fields suffice.
type runState struct {
	cfg    Config
	alg    core.Algorithm
	bodies *phys.Bodies
	store  *octree.Store
	tree   *octree.Tree
	assign [][]int32
	cube   vec.Cube
	orig   bool // ORIG's shared-arena bookkeeping
	// visLocks: on HLRC platforms the shared-tree algorithms take a lock
	// per descent level for visibility under lazy release consistency
	// (the paper: "the HLRC protocol requires additional synchronization
	// to make the code release consistent"). SPACE needs none: its only
	// cross-processor handoffs are barrier-separated.
	visLocks bool
	procs    []*sproc

	bodyLeaf []uint32 // UPDATE

	// Per-processor body arrays (LOCAL-family): a body's record lives in
	// its owner's region and physically moves on reassignment, as the
	// SPLASH-2 code does. ORIG keeps the single global array.
	bodyAddrOf []uint64
	bodyOwner  []int32
	freeSlots  [][]uint64
	nextSlot   []int
	moves      [][][2]uint64 // per proc: (old,new) addresses to migrate

	ownerAddrs [][]uint64 // per-proc node addresses (moments/rescale)

	space *spaceState

	// nodeLines is how many coherence units one node record spans (1 for
	// page-grained HLRC, 256/LineSize for the hardware protocols).
	nodeLines int

	interactions int64 // measured steps only
}

// Run simulates the whole application (warm + measured steps) for one
// algorithm on one platform and returns the measured outcome. The caller's
// bodies are not modified.
func Run(alg core.Algorithm, bodies *phys.Bodies, cfg Config) Outcome {
	st, res := run(alg, bodies, cfg)
	return st.outcome(res)
}

// run is Run exposing the final state, for white-box tests that verify
// the simulated builders produced a correct tree.
func run(alg core.Algorithm, bodies *phys.Bodies, cfg Config) (*runState, memsim.Result) {
	cfg = cfg.withDefaults()
	p := cfg.P
	st := &runState{
		cfg:    cfg,
		alg:    alg,
		bodies: bodies.Clone(),
		assign: core.EvenAssign(bodies.N(), p),
		orig:   alg == core.ORIG && !cfg.Sequential,
		procs:  make([]*sproc, p),
	}
	st.visLocks = cfg.Platform.Kind == memsim.HLRC && !cfg.Sequential && p > 1
	st.nodeLines = 1
	if cfg.Platform.Kind != memsim.HLRC && cfg.Platform.LineSize > 0 {
		st.nodeLines = 256 / cfg.Platform.LineSize
		if st.nodeLines < 1 {
			st.nodeLines = 1
		}
		if st.nodeLines > 4 {
			st.nodeLines = 4
		}
	}
	nArenas := p
	if st.orig {
		nArenas = 1
	}
	st.store = octree.NewStore(nArenas, cfg.LeafCap)
	st.initBodyAddrs()
	if alg == core.UPDATE {
		st.bodyLeaf = make([]uint32, bodies.N())
	}
	for w := 0; w < p; w++ {
		arena := w
		if st.orig {
			arena = 0
		}
		st.procs[w] = &sproc{w: w, st: st, arena: arena}
	}

	eng := memsim.NewEngine(cfg.Platform, p)
	st.placeHomes(eng.Memory())
	res := eng.Run(func(mp *memsim.Proc) { st.program(mp) })
	return st, res
}

// initBodyAddrs seeds the per-processor body arrays from the initial even
// assignment (ORIG keeps the global array).
func (st *runState) initBodyAddrs() {
	n := st.bodies.N()
	p := st.cfg.P
	st.bodyAddrOf = make([]uint64, n)
	st.bodyOwner = make([]int32, n)
	st.moves = make([][][2]uint64, p)
	if st.orig {
		for b := 0; b < n; b++ {
			st.bodyAddrOf[b] = bodyAddr(int32(b))
		}
		return
	}
	st.freeSlots = make([][]uint64, p)
	st.nextSlot = make([]int, p)
	for w, chunk := range st.assign {
		for _, b := range chunk {
			st.bodyAddrOf[b] = bodySlotAddr(w, st.nextSlot[w])
			st.nextSlot[w]++
			st.bodyOwner[b] = int32(w)
		}
	}
}

// placeHomes homes each data region the way the real codes would:
// per-processor body arrays, node arenas, and private counters at their
// owner. ORIG's global body array and shared node arena keep the default
// round-robin placement — removing exactly that is the LOCAL redesign.
func (st *runState) placeHomes(mem memsim.Protocol) {
	p := st.cfg.P
	pl := st.cfg.Platform
	for w := 0; w < p; w++ {
		node := pl.NodeOf(w, p)
		mem.SetHome(privStatAddr(w), privStatAddr(w)+4096, node)
		if !st.orig {
			base := arenaBase + uint64(w)*arenaStride
			mem.SetHome(base, base+arenaStride, node)
			blo := bodySlotAddr(w, 0)
			mem.SetHome(blo, blo+bodyRegionStride, node)
		}
	}
}

// migrateBodies (processor 0, during partitioning) reassigns bodies to
// their new owners' arrays; the charged reads/writes are performed by the
// receiving processors at the start of the force phase.
func (st *runState) migrateBodies() {
	if st.orig {
		return
	}
	for w := range st.assign {
		st.moves[w] = st.moves[w][:0]
		for _, b := range st.assign[w] {
			if st.bodyOwner[b] == int32(w) {
				continue
			}
			old := st.bodyAddrOf[b]
			ow := int(st.bodyOwner[b])
			st.freeSlots[ow] = append(st.freeSlots[ow], old)
			var na uint64
			if k := len(st.freeSlots[w]); k > 0 {
				na = st.freeSlots[w][k-1]
				st.freeSlots[w] = st.freeSlots[w][:k-1]
			} else {
				na = bodySlotAddr(w, st.nextSlot[w])
				st.nextSlot[w]++
			}
			st.bodyAddrOf[b] = na
			st.bodyOwner[b] = int32(w)
			st.moves[w] = append(st.moves[w], [2]uint64{old, na})
		}
	}
}

func lbl(name string, s int) string { return fmt.Sprintf("%s@%d", name, s) }

// program is the per-processor main loop: the three phases of each time
// step, separated by barriers exactly as the real application is.
func (st *runState) program(mp *memsim.Proc) {
	sp := st.procs[mp.ID]
	sp.mp = mp
	total := warmSteps + st.cfg.MeasuredSteps
	for s := 0; s < total; s++ {
		sp.meas = s >= warmSteps
		st.buildPhase(sp, s)
		mp.Barrier(lbl("tree", s))
		st.partitionPhase(sp, s)
		mp.Barrier(lbl("part", s))
		st.forcePhase(sp, s)
		mp.Barrier(lbl("force", s))
		st.updatePhase(sp, s)
		mp.Barrier(lbl("update", s))
	}
}

// buildPhase sizes the root, runs the algorithm-specific load, and
// finishes with the center-of-mass pass — the paper's "tree building".
func (st *runState) buildPhase(sp *sproc, s int) {
	sp.inBuild = true
	defer func() { sp.inBuild = false }()
	cfg := st.cfg

	// Root bounds: each processor reduces over its own bodies.
	sp.compute(float64(len(st.assign[sp.w])) * boundsCycles)
	sp.mp.Barrier(lbl("bounds", s))

	incremental := st.alg == core.UPDATE && s > 0 && !cfg.Sequential
	if sp.w == 0 {
		st.cube = st.bodies.Bounds(vec.RootMargin)
		if incremental {
			// Keep the tree; refresh every node's bounds.
			st.tree.Store.Rescale(st.tree.Root, st.cube)
			st.ownerAddrs = collectOwnerAddrs(st.tree, st.cfg.P, st.nodeLines)
		} else {
			st.store.Reset()
			st.tree = octree.NewTree(st.store, sp.arena, 0, st.cube)
			sp.writeNode(st.tree.Root)
			if st.alg == core.SPACE && !cfg.Sequential {
				st.space = newSpaceState(st)
			}
		}
	}
	sp.mp.Barrier(lbl("setup", s))

	if incremental {
		// Charge the distributed rescale pass.
		sp.writeChunks(st.ownerAddrs[sp.w])
		sp.compute(float64(len(st.ownerAddrs[sp.w])) * descendCycles)
	}

	switch {
	case cfg.Sequential:
		for _, b := range st.assign[sp.w] {
			sp.insertPrivate(st.tree.Root, 0, b)
		}
	case st.alg == core.ORIG || st.alg == core.LOCAL:
		st.loadBodies(sp)
	case st.alg == core.UPDATE:
		if s == 0 {
			st.loadBodies(sp)
		} else {
			st.updateMove(sp)
		}
	case st.alg == core.PARTREE:
		st.partreeBuild(sp)
	case st.alg == core.SPACE:
		st.spaceBuild(sp, s)
	}
	sp.mp.Barrier(lbl("load", s))

	// Moments: proc 0 computes the real values (cheap, native); every
	// processor is charged for the nodes it owns.
	if sp.w == 0 {
		octree.ComputeMomentsSerial(st.tree, st.data())
		st.ownerAddrs = collectOwnerAddrs(st.tree, st.cfg.P, st.nodeLines)
	}
	sp.mp.Barrier(lbl("mcol", s))
	addrs := st.ownerAddrs[sp.w]
	sp.readChunks(addrs)
	sp.writeChunks(addrs)
	sp.compute(float64(len(addrs)) * momentCycles)
}

func (st *runState) loadBodies(sp *sproc) {
	for _, b := range st.assign[sp.w] {
		sp.insert(st.tree.Root, 0, b)
	}
}

// partitionPhase computes costzones on processor 0 (the partitioning and
// the other phases are kept identical across algorithms, as in the paper).
func (st *runState) partitionPhase(sp *sproc, s int) {
	if sp.w != 0 {
		return
	}
	d := st.data()
	st.assign = partition.Costzones(st.tree, d, st.cfg.P)
	st.migrateBodies()
	var leafAddrs []uint64
	octree.Walk(st.tree, func(r octree.Ref, _ int) bool {
		if r.IsLeaf() {
			leafAddrs = append(leafAddrs, nodeAddr(r))
		}
		return true
	})
	sp.readChunks(leafAddrs)
	sp.compute(float64(st.bodies.N()) * partitionCycles)
}

// forcePhase runs the real traversals natively to obtain each processor's
// interaction counts and distinct working set, then charges compute cycles
// and batched reads against the simulated machine.
func (st *runState) forcePhase(sp *sproc, s int) {
	own := st.assign[sp.w]
	// Pull in the bodies reassigned to us this step (read from the old
	// owner's array, write into ours).
	if mv := st.moves[sp.w]; len(mv) > 0 {
		olds := make([]uint64, len(mv))
		news := make([]uint64, len(mv))
		for i, m := range mv {
			olds[i], news[i] = m[0], m[1]
		}
		sp.readChunks(olds)
		sp.writeChunks(news)
	}
	d := st.data()
	params := st.cfg.forceParams()
	seen := make(map[octree.Ref]struct{}, 4*len(own))
	var nodeAddrs []uint64
	var inter int64
	for _, b := range own {
		r := force.AccelVisit(st.tree, d, b, params, func(ref octree.Ref) {
			if _, ok := seen[ref]; !ok {
				seen[ref] = struct{}{}
				nodeAddrs = appendNodeUnits(nodeAddrs, ref, st.nodeLines)
			}
		})
		st.bodies.Acc[b] = r.Acc
		st.bodies.Cost[b] = r.Interactions
		inter += r.Interactions
	}
	if sp.meas {
		st.interactions += inter
	}

	// Own bodies are read, the working set of tree nodes is read, the
	// compute is spread across the node chunks so contention interleaves.
	sp.readChunks(st.bodyAddrs(own))
	nChunks := (len(nodeAddrs) + chunkLen - 1) / chunkLen
	if nChunks == 0 {
		nChunks = 1
	}
	perChunk := float64(inter) * InteractionCycles / float64(nChunks)
	for i := 0; i < len(nodeAddrs); i += chunkLen {
		end := i + chunkLen
		if end > len(nodeAddrs) {
			end = len(nodeAddrs)
		}
		sp.mp.ReadBatch(nodeAddrs[i:end])
		sp.compute(perChunk)
	}
	if len(nodeAddrs) == 0 {
		sp.compute(perChunk)
	}
	sp.writeChunks(st.bodyAddrs(own))
}

// updatePhase integrates the processor's bodies natively and charges the
// update work and body writes.
func (st *runState) updatePhase(sp *sproc, s int) {
	own := st.assign[sp.w]
	st.bodies.Advance(own, st.cfg.Dt)
	sp.compute(float64(len(own)) * updateCycles)
	sp.writeChunks(st.bodyAddrs(own))
}

func (st *runState) data() octree.BodyData {
	return octree.BodyData{Pos: st.bodies.Pos, Mass: st.bodies.Mass, Cost: st.bodies.Cost}
}

func (st *runState) bodyAddrs(bs []int32) []uint64 {
	out := make([]uint64, len(bs))
	for i, b := range bs {
		out[i] = st.bodyAddrOf[b]
	}
	return out
}

// collectOwnerAddrs walks the live tree grouping node addresses by the
// processor that created them (the paper has each processor compute the
// moments of the cells it created), expanded to coherence-unit granularity.
func collectOwnerAddrs(t *octree.Tree, p, nodeLines int) [][]uint64 {
	out := make([][]uint64, p)
	octree.Walk(t, func(r octree.Ref, _ int) bool {
		var owner int32
		if r.IsLeaf() {
			owner = t.Store.Leaf(r).Owner
		} else {
			owner = t.Store.Cell(r).Owner
		}
		if int(owner) >= p {
			owner = 0
		}
		out[owner] = appendNodeUnits(out[owner], r, nodeLines)
		return true
	})
	return out
}

// outcome extracts the measured phase times and counters.
func (st *runState) outcome(res memsim.Result) Outcome {
	o := Outcome{
		Steps:        st.cfg.MeasuredSteps,
		Interactions: st.interactions,
		Protocol:     res.Protocol,
		LocksPerProc: make([]int64, st.cfg.P),
	}
	for w, sp := range st.procs {
		o.LocksPerProc[w] = sp.locks
	}

	// Phase boundaries from barrier records.
	release := map[string]float64{}
	for _, b := range res.Barriers {
		release[b.Label] = b.Release
	}
	prevEnd := 0.0
	for s := 0; s < warmSteps+st.cfg.MeasuredSteps; s++ {
		tTree := release[lbl("tree", s)]
		tPart := release[lbl("part", s)]
		tForce := release[lbl("force", s)]
		tUpd := release[lbl("update", s)]
		if s >= warmSteps {
			o.TreeNs += tTree - prevEnd
			o.PartNs += tPart - tTree
			o.ForceNs += tForce - tPart
			o.UpdateNs += tUpd - tForce
		}
		prevEnd = tUpd
	}

	// Barrier waits over measured steps (Table 2).
	o.BarrierNsPerProc = make([]float64, st.cfg.P)
	for _, b := range res.Barriers {
		at := strings.LastIndex(b.Label, "@")
		step, err := strconv.Atoi(b.Label[at+1:])
		if err != nil || step < warmSteps {
			continue
		}
		for w, wait := range b.Waits {
			o.BarrierNsPerProc[w] += wait
		}
	}
	return o
}
