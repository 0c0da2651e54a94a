package core

import (
	"testing"

	"partree/internal/force"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

// TestHotSpotContention hammers one tiny region from many goroutines with
// k=1 (every insertion subdivides), the worst case for the locking
// discipline: racing subdivisions, retries, and slot revalidation. Run
// under -race this exercises every transition of the slot protocol.
func TestHotSpotContention(t *testing.T) {
	n, p := 4000, 8
	b := phys.NewBodies(n)
	// All bodies in a small ball, interleaved across processors so every
	// goroutine fights for the same subtree.
	src := phys.Generate(phys.ModelPlummer, n, 77)
	for i := range b.Pos {
		b.Pos[i] = src.Pos[i].Scale(0.01)
		b.Mass[i] = 1
		b.Cost[i] = 1
	}
	// Round-robin assignment maximizes overlap.
	assign := make([][]int32, p)
	for i := 0; i < n; i++ {
		assign[i%p] = append(assign[i%p], int32(i))
	}
	for _, alg := range []Algorithm{ORIG, LOCAL, PARTREE} {
		bld := New(alg, Config{P: p, LeafCap: 1})
		tr, m := bld.Build(&Input{Bodies: b, Assign: assign})
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(tr, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if alg != PARTREE && m.TotalRetries() == 0 {
			t.Logf("%v: no retries observed (contention did not materialize this run)", alg)
		}
	}
}

// TestUpdateTreeDegradation quantifies the known cost of UPDATE: since it
// never collapses cells, a drifting system accretes structure — more
// nodes to store, rescale, and traverse than a freshly rebuilt tree.
// (Interaction counts can even drop slightly: a non-minimal cell is
// approximated as one interaction where a canonical leaf costs up to k —
// the degradation is structural, not in the θ work.)
func TestUpdateTreeDegradation(t *testing.T) {
	n, p := 3000, 4
	b := phys.Generate(phys.ModelTwoClusters, n, 5)
	upd := New(UPDATE, Config{P: p, LeafCap: 8})
	params := force.DefaultParams()

	for step := 0; step < 10; step++ {
		in := &Input{Bodies: b, Assign: EvenAssign(n, p), Step: step}
		tr, _ := upd.Build(in)
		if step == 9 {
			d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
			fresh := octree.BuildSerial(b.Pos, 8)
			octree.ComputeMomentsSerial(fresh, d)
			us, fs := octree.CollectStats(tr), octree.CollectStats(fresh)
			updNodes := us.Cells + us.Leaves
			freshNodes := fs.Cells + fs.Leaves
			if updNodes <= freshNodes {
				t.Fatalf("UPDATE tree (%d nodes) not larger than fresh tree (%d)", updNodes, freshNodes)
			}
			if updNodes > freshNodes*4 {
				t.Fatalf("UPDATE tree ballooned: %d vs %d nodes", updNodes, freshNodes)
			}
			var updVisits, freshVisits int64
			for i := 0; i < n; i += 17 {
				updVisits += force.Accel(tr, d, int32(i), params).NodesVisited
				freshVisits += force.Accel(fresh, d, int32(i), params).NodesVisited
			}
			t.Logf("after 10 drifting steps: %d vs %d nodes (+%.0f%%), %d vs %d traversal visits",
				updNodes, freshNodes, 100*float64(updNodes-freshNodes)/float64(freshNodes),
				updVisits, freshVisits)
		}
		b.Drift(0, n, 0.08)
	}
}

// TestBuildersWithSpatialAssignment runs every builder from a costzones-
// like spatial partition (the steady-state input) and cross-checks
// PARTREE's promised lock reduction.
func TestBuildersWithSpatialAssignment(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 6000, 9)
	assign := SpatialAssign(b, 8)
	var partreeLocks, localLocks int64
	for _, alg := range Algorithms() {
		bld := New(alg, Config{P: 8, LeafCap: 8})
		tr, m := bld.Build(&Input{Bodies: b, Assign: assign})
		d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
		if err := octree.Check(tr, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		switch alg {
		case PARTREE:
			partreeLocks = m.TotalLocks()
		case LOCAL:
			localLocks = m.TotalLocks()
		}
	}
	// With spatial locality the merge unit is a subtree: locks should be
	// a tiny fraction of the per-body algorithms'.
	if partreeLocks*20 > localLocks {
		t.Fatalf("PARTREE locks %d not ≪ LOCAL %d under spatial partitioning", partreeLocks, localLocks)
	}
}

// TestSpaceEmptyProcessors exercises SPACE when some processors own no
// subspaces: 64 bodies leave 22 subspaces, fewer than the 32 processors.
// A SPACE processor's BodiesBuilt counts the bodies of the subspaces it
// claimed, and no subspace is empty, so a processor that built no body
// claimed none.
func TestSpaceEmptyProcessors(t *testing.T) {
	b := phys.Generate(phys.ModelUniform, 64, 3)
	bld := New(SPACE, Config{P: 32, LeafCap: 8})
	tr, m := bld.Build(&Input{Bodies: b, Assign: EvenAssign(64, 32)})
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	if err := octree.Check(tr, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
		t.Fatal(err)
	}
	if m.TotalLocks() != 0 {
		t.Fatal("SPACE locked")
	}
	idle := 0
	for w := range m.PerP {
		if m.PerP[w].BodiesBuilt == 0 {
			idle++
		}
	}
	if idle == 0 {
		t.Fatal("every one of the 32 processors built bodies, want some to claim no subspace")
	}
}

// TestRootCubeConsistentAcrossBuilders: all builders must size the root
// identically or trees would not be comparable.
func TestRootCubeConsistentAcrossBuilders(t *testing.T) {
	b := phys.Generate(phys.ModelTwoClusters, 1000, 13)
	var want vec.Cube
	for i, alg := range Algorithms() {
		bld := New(alg, Config{P: 4, LeafCap: 8})
		tr, _ := bld.Build(&Input{Bodies: b, Assign: EvenAssign(1000, 4)})
		got := tr.RootCube()
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%v root cube %v differs from %v", alg, got, want)
		}
	}
}
