package octree

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"testing"

	"partree/internal/phys"
	"partree/internal/vec"
)

func testBodies(t *testing.T, n int, seed int64) *phys.Bodies {
	t.Helper()
	return phys.Generate(phys.ModelPlummer, n, seed)
}

func data(b *phys.Bodies) BodyData {
	return BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
}

// feq and veq compare within a relative tolerance, for sums the tests
// recompute in a different order than the moments pass does.
func feq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func veq(a, b vec.V3, tol float64) bool {
	return feq(a.X, b.X, tol) && feq(a.Y, b.Y, tol) && feq(a.Z, b.Z, tol)
}

func TestRefEncoding(t *testing.T) {
	cases := []struct {
		arena, idx int
		leaf       bool
	}{
		// Note leaf/arena63/indexMask is the reserved Nil encoding.
		{0, 0, false}, {0, 0, true}, {63, indexMask - 1, true}, {63, indexMask, false}, {17, 12345, false},
	}
	for _, tc := range cases {
		var r Ref
		if tc.leaf {
			r = LeafRef(tc.arena, tc.idx)
		} else {
			r = CellRef(tc.arena, tc.idx)
		}
		if r.IsNil() {
			t.Fatalf("ref %v unexpectedly nil", r)
		}
		if r.IsLeaf() != tc.leaf || r.Arena() != tc.arena || r.Index() != tc.idx {
			t.Fatalf("round trip failed: %v -> leaf=%v arena=%d idx=%d", r, r.IsLeaf(), r.Arena(), r.Index())
		}
	}
	if !Nil.IsNil() || Nil.IsLeaf() || Nil.IsCell() {
		t.Fatal("Nil misclassified")
	}
}

func TestBuildSerialInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 8, 9, 100, 5000} {
		b := testBodies(t, n, 42)
		tr := BuildSerial(b.Pos, 8)
		ComputeMomentsSerial(tr, data(b))
		if err := Check(tr, data(b), CheckOptions{Canonical: true, Moments: true}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBuildSerialLeafCaps(t *testing.T) {
	b := testBodies(t, 3000, 7)
	for _, k := range []int{1, 2, 4, 8, 16} {
		tr := BuildSerial(b.Pos, k)
		ComputeMomentsSerial(tr, data(b))
		if err := Check(tr, data(b), CheckOptions{Canonical: true, Moments: true}); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		st := CollectStats(tr)
		if st.Bodies != 3000 {
			t.Fatalf("k=%d: stats bodies = %d", k, st.Bodies)
		}
	}
}

func TestMomentsConserveMass(t *testing.T) {
	b := testBodies(t, 4000, 3)
	tr := BuildSerial(b.Pos, 8)
	ComputeMomentsSerial(tr, data(b))
	root := tr.Store.Cell(tr.Root)
	if !feq(root.Mass, b.TotalMass(), 1e-9) {
		t.Fatalf("root mass %g, want %g", root.Mass, b.TotalMass())
	}
	if int(root.NBody) != b.N() {
		t.Fatalf("root NBody %d, want %d", root.NBody, b.N())
	}
	if !veq(root.COM, b.CenterOfMass(), 1e-9) {
		t.Fatalf("root COM %v, want %v", root.COM, b.CenterOfMass())
	}
	var wantCost int64
	for _, c := range b.Cost {
		wantCost += c
	}
	if root.Cost != wantCost {
		t.Fatalf("root cost %d, want %d", root.Cost, wantCost)
	}
}

// momentBits snapshots every moment the passes write on each live node —
// Mass and COM as their bits, then NBody and Cost — and poisons them, so
// the next pass has to write each one again to match.
func momentBits(t *Tree) [][6]uint64 {
	var out [][6]uint64
	s := t.Store
	Walk(t, func(r Ref, _ int) bool {
		var m [6]uint64
		var mass *float64
		var com *vec.V3
		var cost *int64
		if r.IsLeaf() {
			l := s.Leaf(r)
			mass, com, cost = &l.Mass, &l.COM, &l.Cost
			m[4] = uint64(len(l.Bodies))
		} else {
			c := s.Cell(r)
			mass, com, cost = &c.Mass, &c.COM, &c.Cost
			m[4] = uint64(c.NBody)
			c.NBody = -1
		}
		for i, v := range [...]float64{*mass, com.X, com.Y, com.Z} {
			m[i] = math.Float64bits(v)
		}
		m[5] = uint64(*cost)
		*mass, *com, *cost = math.NaN(), vec.V3{X: math.NaN()}, -1
		out = append(out, m)
		return true
	})
	return out
}

// parallelMomentsMismatch runs the parallel pass with w workers on a tree
// the serial pass just filled and snapshotted as want (its Stats as
// wantSt), and describes the first difference, or returns "".
func parallelMomentsMismatch(tr *Tree, d BodyData, w int, want [][6]uint64, wantSt Stats) string {
	if st := ComputeMomentsParallel(tr, d, w); st != wantSt {
		return fmt.Sprintf("workers=%d: pass counted %v, serial %v", w, st, wantSt)
	}
	got := momentBits(tr)
	if len(got) != len(want) {
		return fmt.Sprintf("workers=%d: %d live nodes, serial pass saw %d", w, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("workers=%d: node %d (walk order)\n got %x\nwant %x", w, i, got[i], want[i])
		}
	}
	return ""
}

// TestParallelMomentsMatchSerial: the parallel pass writes, on every live
// node, exactly the bits the serial pass writes, and counts exactly its
// Stats — so a subtree skipped or done twice fails, and so does a cell
// above the cut combined twice, never, or before its last child —
// whatever the worker count and however the bodies sit under the cut: a
// Plummer tree (with cells above the cut that hold only leaves), one
// whose Plummer core sits in a single cut subtree holding most bodies
// (the runs must rebalance by stealing), a tree with fewer cut cells than workers, a single-leaf root
// and an empty root.
func TestParallelMomentsMatchSerial(t *testing.T) {
	cube := vec.Cube{Center: vec.V3{X: 1, Y: 2, Z: 3}, Size: 2}
	trees := map[string]func() (*Tree, BodyData){
		"plummer": func() (*Tree, BodyData) {
			b := testBodies(t, 6000, 9)
			return BuildSerial(b.Pos, 8), data(b)
		},
		"plummer-in-one-subtree": func() (*Tree, BodyData) {
			// A Plummer sphere of 14 000 bodies shrunk into one cut cell
			// of 6 000 bodies spread over the unit cube.
			b := testBodies(t, 20000, 5)
			r := rand.New(rand.NewSource(5))
			for i := range b.Pos {
				if i < 6000 {
					b.Pos[i] = vec.V3{X: r.Float64(), Y: r.Float64(), Z: r.Float64()}
				} else {
					b.Pos[i] = vec.V3{X: 0.3, Y: 0.3, Z: 0.3}.Add(b.Pos[i].Scale(1e-4))
				}
			}
			return BuildSerial(b.Pos, 8), data(b)
		},
		"fewer-cut-cells-than-workers": func() (*Tree, BodyData) {
			b := testBodies(t, 40, 3)
			return BuildSerial(b.Pos, 8), data(b)
		},
		"single-leaf-root": func() (*Tree, BodyData) {
			b := phys.Generate(phys.ModelUniform, 5, 2)
			s := NewStore(1, 8)
			lr, l := s.AllocLeaf(0, b.Bounds(vec.RootMargin), Nil, 0)
			l.Bodies = append(l.Bodies, 0, 1, 2, 3, 4)
			return &Tree{Store: s, Root: lr}, data(b)
		},
		"empty-root": func() (*Tree, BodyData) {
			return NewTree(NewStore(1, 8), 0, 0, cube), BodyData{}
		},
	}
	for name, mk := range trees {
		t.Run(name, func(t *testing.T) {
			tr, d := mk()
			wantSt := ComputeMomentsSerial(tr, d)
			if got := CollectStats(tr); got != wantSt {
				t.Fatalf("serial pass counted %v, CollectStats %v", wantSt, got)
			}
			switch name {
			case "plummer":
				// Outliers leave cells above the cut whose children are
				// all leaves: tasks of their own, whose completion, like
				// the cut's, combines the cells above them.
				top := tr.Store.cut(tr.Root, 2)
				cut := top.depth[len(top.depth)-1]
				above := 0
				for _, k := range top.tasks {
					if top.depth[k] < cut {
						above++
					}
				}
				if above == 0 {
					t.Fatal("no cell above the cut holds only leaves")
				}
			case "plummer-in-one-subtree":
				top := tr.Store.cut(tr.Root, 2)
				heaviest := 0
				for _, k := range top.tasks {
					heaviest = max(heaviest, int(tr.Store.Cell(top.cells[k]).NBody))
				}
				if heaviest < wantSt.Bodies/2 {
					t.Fatalf("heaviest cut subtree holds %d of %d bodies, want most", heaviest, wantSt.Bodies)
				}
			case "fewer-cut-cells-than-workers":
				if tasks := tr.Store.cut(tr.Root, 8).tasks; len(tasks) >= 8 {
					t.Fatalf("cut holds %d tasks, want fewer than 8", len(tasks))
				}
			}
			want := momentBits(tr)
			for _, w := range []int{1, 2, 3, 4, 8} {
				if msg := parallelMomentsMismatch(tr, d, w, want, wantSt); msg != "" {
					t.Fatal(msg)
				}
			}
		})
	}
}

// TestEmptyTreeMoments: a tree over no bodies is one childless root; the
// upward pass seeds it like any emptied cell, so both moments passes
// leave it massless with its center of mass at the cube's center.
func TestEmptyTreeMoments(t *testing.T) {
	cube := vec.Cube{Center: vec.V3{X: 1, Y: 2, Z: 3}, Size: 2}
	for _, w := range []int{0, 1, 3} { // 0 = the serial pass
		tr := NewTree(NewStore(3, 8), 0, 0, cube)
		root := tr.Store.Cell(tr.Root)
		root.COM, root.Mass, root.NBody = vec.V3{X: 9}, 9, 9
		if w == 0 {
			ComputeMomentsSerial(tr, BodyData{})
		} else {
			ComputeMomentsParallel(tr, BodyData{}, w)
		}
		if root.COM != cube.Center || root.Mass != 0 || root.NBody != 0 {
			t.Errorf("workers=%d: empty root has COM %v mass %g n %d, want %v, 0, 0",
				w, root.COM, root.Mass, root.NBody, cube.Center)
		}
	}
}

func TestCoincidentBodiesDepthCap(t *testing.T) {
	// 20 coincident bodies cannot be separated by subdivision; the depth
	// cap must stop recursion and produce one overflow leaf.
	n := 20
	pos := make([]vec.V3, n)
	mass := make([]float64, n)
	for i := range pos {
		pos[i] = vec.V3{X: 0.25, Y: 0.25, Z: 0.25}
		mass[i] = 1
	}
	// A couple of distinct bodies so the tree is not a single stack.
	pos = append(pos, vec.V3{X: 0.9, Y: 0.9, Z: 0.9}, vec.V3{X: 0.1, Y: 0.9, Z: 0.1})
	mass = append(mass, 1, 1)

	tr := BuildSerial(pos, 4)
	d := BodyData{Pos: pos, Mass: mass}
	ComputeMomentsSerial(tr, d)
	if err := Check(tr, d, CheckOptions{Moments: true}); err != nil {
		t.Fatal(err)
	}
	st := CollectStats(tr)
	if st.MaxDepth > MaxDepth {
		t.Fatalf("depth %d exceeded cap %d", st.MaxDepth, MaxDepth)
	}
	if st.MaxLeafLen < n {
		t.Fatalf("expected an overflow leaf with ≥%d bodies, max is %d", n, st.MaxLeafLen)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	b := testBodies(t, 500, 11)
	t1 := BuildSerial(b.Pos, 8)
	t2 := BuildSerial(b.Pos, 8)
	if err := Equal(t1, t2); err != nil {
		t.Fatalf("identical builds compare unequal: %v", err)
	}
	t3 := BuildSerial(b.Pos, 4)
	err := Equal(t1, t3)
	if err == nil {
		t.Fatal("trees with different leaf caps compare equal")
	}
	// The report names the first differing node by its octant path.
	if !regexp.MustCompile(` at root(/[0-7])+[: ]`).MatchString(err.Error()) {
		t.Errorf("difference reported without its octant path: %v", err)
	}
	b2 := testBodies(t, 500, 12)
	t4 := BuildSerial(b2.Pos, 8)
	if err := Equal(t1, t4); err == nil {
		t.Fatal("trees over different bodies compare equal")
	}
}

func TestWalkOrderDeterministic(t *testing.T) {
	b := testBodies(t, 1000, 5)
	tr := BuildSerial(b.Pos, 8)
	var a, c []Ref
	Walk(tr, func(r Ref, _ int) bool { a = append(a, r); return true })
	Walk(tr, func(r Ref, _ int) bool { c = append(c, r); return true })
	if len(a) != len(c) {
		t.Fatal("walk lengths differ")
	}
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("walk order differs at %d", i)
		}
	}
	if st := CollectStats(tr); st.Cells+st.Leaves != len(a) {
		t.Fatalf("CollectStats counts %d cells + %d leaves, walk length %d", st.Cells, st.Leaves, len(a))
	}
}

func TestWalkPrune(t *testing.T) {
	b := testBodies(t, 1000, 5)
	tr := BuildSerial(b.Pos, 8)
	count := 0
	Walk(tr, func(r Ref, depth int) bool {
		count++
		return depth < 1 // visit root and its children only
	})
	if count > 9 {
		t.Fatalf("prune failed: visited %d nodes", count)
	}
}

func TestStoreReset(t *testing.T) {
	b := testBodies(t, 2000, 2)
	s := NewStore(1, 8)
	cube := vec.BoundingCube(len(b.Pos), func(i int) vec.V3 { return b.Pos[i] }, vec.RootMargin)
	t1 := BuildSerialInto(s, cube, b.Pos)
	s1 := CollectStats(t1)
	s.Reset()
	t2 := BuildSerialInto(s, cube, b.Pos)
	if s2 := CollectStats(t2); s1 != s2 {
		t.Fatalf("rebuild after reset differs: %+v vs %+v", s1, s2)
	}
	ComputeMomentsSerial(t2, data(b))
	if err := Check(t2, data(b), CheckOptions{Canonical: true, Moments: true}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedArenaConcurrentAlloc(t *testing.T) {
	// The ORIG algorithm allocates all nodes from one shared arena; the
	// allocation cursor must hand out distinct slots under contention.
	s := NewStore(1, 8)
	const perG, nG = 2000, 8
	done := make(chan []Ref, nG)
	for g := 0; g < nG; g++ {
		go func(g int) {
			refs := make([]Ref, 0, perG)
			for i := 0; i < perG; i++ {
				r, _ := s.AllocCell(0, vec.Cube{Size: 1}, Nil, g)
				refs = append(refs, r)
			}
			done <- refs
		}(g)
	}
	seen := make(map[Ref]bool)
	for g := 0; g < nG; g++ {
		for _, r := range <-done {
			if seen[r] {
				t.Fatalf("duplicate ref %v", r)
			}
			seen[r] = true
		}
	}
	if s.CellsIn(0) != perG*nG {
		t.Fatalf("allocated %d, want %d", s.CellsIn(0), perG*nG)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	b := testBodies(t, 300, 4)
	d := data(b)

	tr := BuildSerial(b.Pos, 8)
	ComputeMomentsSerial(tr, d)

	// Corrupt a leaf's body list: duplicate a body.
	leaves := LiveLeaves(tr)
	l := tr.Store.Leaf(leaves[0])
	saved := append([]int32(nil), l.Bodies...)
	l.Bodies = append(l.Bodies, l.Bodies[0])
	if err := Check(tr, d, CheckOptions{}); err == nil {
		t.Fatal("Check accepted duplicated body")
	}
	l.Bodies = saved

	// Corrupt moments.
	tr.Store.Cell(tr.Root).Mass *= 2
	if err := Check(tr, d, CheckOptions{Moments: true}); err == nil {
		t.Fatal("Check accepted corrupted mass")
	}
	ComputeMomentsSerial(tr, d)

	// Corrupt a parent link.
	l = tr.Store.Leaf(leaves[1])
	savedParent := l.Parent
	l.Parent = Nil
	if err := Check(tr, d, CheckOptions{}); err == nil {
		t.Fatal("Check accepted broken parent link")
	}
	l.Parent = savedParent

	if err := Check(tr, d, CheckOptions{Canonical: true, Moments: true}); err != nil {
		t.Fatalf("restored tree fails: %v", err)
	}
}

func TestStatsSane(t *testing.T) {
	b := testBodies(t, 4096, 6)
	tr := BuildSerial(b.Pos, 8)
	st := CollectStats(tr)
	if st.Bodies != 4096 {
		t.Fatalf("bodies %d", st.Bodies)
	}
	if st.AvgOcc <= 0 || st.AvgOcc > 8 {
		t.Fatalf("avg occupancy %f out of (0,8]", st.AvgOcc)
	}
	if st.MaxDepth < 3 {
		t.Fatalf("suspiciously shallow tree: depth %d", st.MaxDepth)
	}
	if st.Leaves == 0 || st.Cells == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}
