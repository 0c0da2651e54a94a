package core

import (
	"slices"
	"testing"

	"partree/internal/phys"
)

// checkPartition verifies assign covers bodies 0..n-1 exactly once
// across exactly p chunks.
func checkPartition(t *testing.T, assign [][]int32, n, p int) {
	t.Helper()
	if len(assign) != p {
		t.Fatalf("want %d chunks, got %d", p, len(assign))
	}
	seen := make([]bool, n)
	total := 0
	for w, chunk := range assign {
		for _, b := range chunk {
			if b < 0 || int(b) >= n {
				t.Fatalf("chunk %d holds out-of-range body %d (n=%d)", w, b, n)
			}
			if seen[b] {
				t.Fatalf("body %d assigned twice", b)
			}
			seen[b] = true
			total++
		}
	}
	if total != n {
		t.Fatalf("partition covers %d of %d bodies", total, n)
	}
}

func TestEvenAssignEdgeCases(t *testing.T) {
	// Fewer bodies than processors: every body still lands somewhere,
	// surplus processors get empty (non-nil iteration-safe) chunks.
	checkPartition(t, EvenAssign(3, 8), 3, 8)
	// Single processor owns everything, in order.
	a := EvenAssign(5, 1)
	checkPartition(t, a, 5, 1)
	for i, b := range a[0] {
		if int(b) != i {
			t.Fatalf("p=1 chunk not in body order: %v", a[0])
		}
	}
	// No bodies at all.
	checkPartition(t, EvenAssign(0, 4), 0, 4)
	// Balance: chunk sizes differ by at most one.
	for _, tc := range []struct{ n, p int }{{10, 3}, {1, 2}, {16, 16}, {17, 4}} {
		a := EvenAssign(tc.n, tc.p)
		checkPartition(t, a, tc.n, tc.p)
		min, max := tc.n, 0
		for _, c := range a {
			if len(c) < min {
				min = len(c)
			}
			if len(c) > max {
				max = len(c)
			}
		}
		if max-min > 1 {
			t.Fatalf("EvenAssign(%d,%d) unbalanced: min=%d max=%d", tc.n, tc.p, min, max)
		}
	}
}

func TestSpatialAssignEdgeCases(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{3, 8}, {5, 1}, {0, 4}, {64, 7}} {
		b := phys.Generate(phys.ModelPlummer, tc.n, 42)
		checkPartition(t, SpatialAssign(b, tc.p), tc.n, tc.p)
	}
}

func TestMetricsZeroProcessors(t *testing.T) {
	m := &Metrics{Alg: SPACE}
	if got := m.TotalLocks(); got != 0 {
		t.Fatalf("TotalLocks with no processors = %d", got)
	}
	if got := m.LocksPerProc(); len(got) != 0 {
		t.Fatalf("LocksPerProc with no processors = %v", got)
	}
	if m.TotalCells() != 0 || m.TotalLeaves() != 0 || m.TotalRetries() != 0 || m.TotalBodiesMoved() != 0 {
		t.Fatal("zero-processor totals must be zero")
	}
	if s := m.String(); s == "" {
		t.Fatal("String on empty metrics")
	}
}

func TestMetricsAggregation(t *testing.T) {
	m := newMetrics(LOCAL, 3)
	m.PerP[0].Locks, m.PerP[1].Locks, m.PerP[2].Locks = 5, 0, 7
	m.PerP[0].Cells, m.PerP[2].Leaves = 2, 4
	m.PerP[1].Retries, m.PerP[1].BodiesMoved = 3, 9
	if got := m.TotalLocks(); got != 12 {
		t.Fatalf("TotalLocks = %d, want 12", got)
	}
	want := []int64{5, 0, 7}
	got := m.LocksPerProc()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LocksPerProc = %v, want %v", got, want)
		}
	}
	if m.TotalCells() != 2 || m.TotalLeaves() != 4 || m.TotalRetries() != 3 || m.TotalBodiesMoved() != 9 {
		t.Fatalf("aggregation wrong: %s", m)
	}
}

// TestSortBodiesMakesEvenAssignSpatial: on a set SortBodies has ordered,
// SpatialAssign's lists are EvenAssign's element for element, so a caller
// that sorts where the bodies are made needs only the even assignment.
// The sort moves whole bodies: ID is a permutation of 0..n-1 naming each
// slot's generator index, and the spent order is that permutation.
func TestSortBodiesMakesEvenAssignSpatial(t *testing.T) {
	for _, m := range phys.Models() {
		for _, n := range []int{0, 1, 7, 4097} {
			gen := phys.Generate(m, n, 3)
			b := gen.Clone()
			order := SortBodies(b, nil)
			if !slices.Equal(order, b.ID) {
				t.Fatalf("%v n=%d: spent order is not the new ID column", m, n)
			}
			seen := make([]bool, n)
			for i, id := range b.ID {
				if id < 0 || int(id) >= n || seen[id] {
					t.Fatalf("%v n=%d: ID is not a permutation of 0..%d: %v", m, n, n-1, b.ID)
				}
				seen[id] = true
				if b.Pos[i] != gen.Pos[id] || b.Vel[i] != gen.Vel[id] || b.Mass[i] != gen.Mass[id] {
					t.Fatalf("%v n=%d: slot %d does not hold generated body %d", m, n, i, id)
				}
			}
			for _, p := range []int{1, 2, 3, 8} {
				even, spatial := EvenAssign(n, p), SpatialAssign(b, p)
				for w := range even {
					if !slices.Equal(spatial[w], even[w]) {
						t.Fatalf("%v n=%d p=%d: share %d spatial %v, even %v", m, n, p, w, spatial[w], even[w])
					}
				}
			}
		}
	}
}
