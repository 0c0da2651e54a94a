package core

import (
	"strings"
	"testing"
	"unsafe"

	"partree/internal/octree"
	"partree/internal/phys"
)

func input(t *testing.T, n, p int, seed int64) *Input {
	t.Helper()
	b := phys.Generate(phys.ModelPlummer, n, seed)
	return &Input{Bodies: b, Assign: EvenAssign(n, p)}
}

func checkAgainstSerial(t *testing.T, tr *octree.Tree, in *Input, canonical bool) {
	t.Helper()
	d := octree.BodyData{Pos: in.Bodies.Pos, Mass: in.Bodies.Mass, Cost: in.Bodies.Cost}
	if err := octree.Check(tr, d, octree.CheckOptions{Canonical: canonical, Moments: true}); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if canonical {
		ref := octree.BuildSerial(in.Bodies.Pos, tr.Store.LeafCap)
		if err := octree.Equal(tr, ref); err != nil {
			t.Fatalf("not equal to canonical serial tree: %v", err)
		}
	}
}

func TestBuildersMatchSerial(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, p := range []int{1, 2, 4, 8} {
			for _, n := range []int{0, 1, 100, 3000} {
				in := input(t, n, p, 42)
				bld := New(alg, Config{P: p, LeafCap: 8})
				tr, m := bld.Build(in)
				if m.Alg != alg {
					t.Fatalf("metrics tagged %v, want %v", m.Alg, alg)
				}
				// UPDATE's first step is a rebuild, so canonical too.
				checkAgainstSerial(t, tr, in, true)
				if t.Failed() {
					t.Fatalf("alg=%v p=%d n=%d failed", alg, p, n)
				}
			}
		}
	}
}

func TestBuildersLeafCapVariants(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 4, 16} {
			in := input(t, 2000, 4, 7)
			bld := New(alg, Config{P: 4, LeafCap: k})
			tr, _ := bld.Build(in)
			checkAgainstSerial(t, tr, in, true)
			if t.Failed() {
				t.Fatalf("alg=%v k=%d failed", alg, k)
			}
		}
	}
}

func TestBuildersUniformAndClustered(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, model := range []phys.Model{phys.ModelUniform, phys.ModelTwoClusters} {
			b := phys.Generate(model, 4000, 5)
			in := &Input{Bodies: b, Assign: EvenAssign(b.N(), 6)}
			bld := New(alg, Config{P: 6, LeafCap: 8})
			tr, _ := bld.Build(in)
			checkAgainstSerial(t, tr, in, true)
			if t.Failed() {
				t.Fatalf("alg=%v model=%v failed", alg, model)
			}
		}
	}
}

func TestLockCountOrdering(t *testing.T) {
	// The design premise of the algorithm sequence (paper Figure 15):
	// lock operations fall from ORIG/LOCAL through PARTREE to SPACE = 0.
	in := input(t, 8000, 8, 3)
	locks := map[Algorithm]int64{}
	for _, alg := range Algorithms() {
		bld := New(alg, Config{P: 8, LeafCap: 8})
		_, m := bld.Build(in)
		locks[alg] = m.TotalLocks()
	}
	if locks[SPACE] != 0 {
		t.Fatalf("SPACE used %d locks, want 0", locks[SPACE])
	}
	if locks[PARTREE] == 0 || locks[PARTREE] >= locks[LOCAL] {
		t.Fatalf("PARTREE locks %d not in (0, LOCAL=%d)", locks[PARTREE], locks[LOCAL])
	}
	if locks[ORIG] < locks[LOCAL]/2 {
		t.Fatalf("ORIG locks %d unexpectedly below LOCAL %d", locks[ORIG], locks[LOCAL])
	}
	// Lock-per-body algorithms: at least one lock per body inserted.
	if locks[ORIG] < 8000 {
		t.Fatalf("ORIG locks %d < bodies", locks[ORIG])
	}
}

func TestSpaceZeroLocksAlways(t *testing.T) {
	for _, p := range []int{1, 3, 16} {
		in := input(t, 5000, p, 9)
		bld := New(SPACE, Config{P: p, LeafCap: 8})
		_, m := bld.Build(in)
		if m.TotalLocks() != 0 {
			t.Fatalf("p=%d: SPACE used %d locks", p, m.TotalLocks())
		}
	}
}

func TestUpdateAcrossSteps(t *testing.T) {
	// Simulate drifting bodies: UPDATE's tree must stay valid (all
	// structural invariants) though not canonical, and must keep
	// matching physics: every body in exactly one leaf at its position.
	n, p := 3000, 4
	b := phys.Generate(phys.ModelPlummer, n, 21)
	bld := New(UPDATE, Config{P: p, LeafCap: 8})
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}

	for step := 0; step < 8; step++ {
		in := &Input{Bodies: b, Assign: EvenAssign(n, p), Step: step}
		tr, m := bld.Build(in)
		if err := octree.Check(tr, d, octree.CheckOptions{Moments: true}); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if step > 0 && m.TotalBodiesMoved() == 0 {
			t.Fatalf("step %d: no bodies moved despite drift", step)
		}
		// Drift bodies.
		b.Drift(0, n, 0.05)
	}
}

func TestUpdateStationaryMovesNothing(t *testing.T) {
	n, p := 2000, 4
	b := phys.Generate(phys.ModelPlummer, n, 13)
	bld := New(UPDATE, Config{P: p, LeafCap: 8})
	for step := 0; step < 3; step++ {
		in := &Input{Bodies: b, Assign: EvenAssign(n, p), Step: step}
		_, m := bld.Build(in)
		if step > 0 {
			if mv := m.TotalBodiesMoved(); mv != 0 {
				t.Fatalf("step %d: %d bodies moved with no motion", step, mv)
			}
			if lk := m.TotalLocks(); lk != 0 {
				t.Fatalf("step %d: %d locks with no motion", step, lk)
			}
		}
	}
}

func TestUpdateFewerLocksThanRebuild(t *testing.T) {
	// With slow drift, UPDATE must lock far less than LOCAL's full
	// rebuild — the paper's motivation for the algorithm.
	n, p := 6000, 4
	b := phys.Generate(phys.ModelPlummer, n, 17)
	upd := New(UPDATE, Config{P: p, LeafCap: 8})
	loc := New(LOCAL, Config{P: p, LeafCap: 8})
	var updLocks, locLocks int64
	for step := 0; step < 4; step++ {
		in := &Input{Bodies: b, Assign: EvenAssign(n, p), Step: step}
		_, mu := upd.Build(in)
		_, ml := loc.Build(in)
		if step > 0 {
			updLocks += mu.TotalLocks()
			locLocks += ml.TotalLocks()
		}
		b.Drift(0, n, 0.01)
	}
	if updLocks*2 >= locLocks {
		t.Fatalf("UPDATE locks %d not well below LOCAL %d", updLocks, locLocks)
	}
}

func TestRepeatedBuildsReuseStore(t *testing.T) {
	// Rebuilding algorithms must be reusable step after step.
	in := input(t, 2000, 4, 31)
	for _, alg := range []Algorithm{ORIG, LOCAL, PARTREE, SPACE} {
		bld := New(alg, Config{P: 4, LeafCap: 8})
		var prev octree.Stats
		for step := 0; step < 3; step++ {
			in.Step = step
			tr, _ := bld.Build(in)
			checkAgainstSerial(t, tr, in, true)
			st := octree.CollectStats(tr)
			if step > 0 && st != prev {
				t.Fatalf("alg=%v: stats changed across identical rebuilds: %v vs %v", alg, st, prev)
			}
			prev = st
		}
	}
}

func TestEvenAssignCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for _, p := range []int{1, 3, 8} {
			a := EvenAssign(n, p)
			if len(a) != p {
				t.Fatalf("n=%d p=%d: %d chunks", n, p, len(a))
			}
			seen := make([]bool, n)
			for _, chunk := range a {
				for _, b := range chunk {
					if seen[b] {
						t.Fatalf("body %d assigned twice", b)
					}
					seen[b] = true
				}
			}
			for i, s := range seen {
				if !s {
					t.Fatalf("body %d unassigned", i)
				}
			}
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, alg := range Algorithms() {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Fatalf("round trip failed for %v: %v", alg, err)
		}
		lower, err := ParseAlgorithm(strings.ToLower(alg.String()))
		if err != nil || lower != alg {
			t.Fatalf("case-insensitive parse failed for %v: %v", alg, err)
		}
	}
	_, err := ParseAlgorithm("bogus")
	if err == nil {
		t.Fatal("parsed bogus algorithm")
	}
	for _, name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list %s", err, name)
		}
	}
}

func TestSpaceThresholdConfig(t *testing.T) {
	// A threshold below one processor's share leaves the rounds at the
	// share; a huge one makes a single subspace. Both must still produce
	// the canonical tree.
	for _, th := range []int{8, 50, 1 << 20} {
		in := input(t, 3000, 4, 3)
		bld := New(SPACE, Config{P: 4, LeafCap: 8, SpaceThreshold: th})
		tr, m := bld.Build(in)
		checkAgainstSerial(t, tr, in, true)
		if m.TotalLocks() != 0 {
			t.Fatalf("th=%d: SPACE locked", th)
		}
	}
}

func TestMetricsBodiesBuilt(t *testing.T) {
	in := input(t, 4096, 4, 8)
	for _, alg := range Algorithms() {
		bld := New(alg, Config{P: 4, LeafCap: 8})
		_, m := bld.Build(in)
		var built int64
		for i := range m.PerP {
			built += m.PerP[i].BodiesBuilt
		}
		if built != 4096 {
			t.Fatalf("alg=%v: %d bodies built, want 4096", alg, built)
		}
	}
}

// TestProcCountersFillTwoCacheLines: the per-processor counters, phase
// times and fork finish stamp stay padded to 128 bytes, so the shares of
// one fork never write to the same line.
func TestProcCountersFillTwoCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(procCounters{}); size != 128 {
		t.Fatalf("procCounters is %d bytes, want 128", size)
	}
}
