package octree

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"partree/internal/par"
	"partree/internal/vec"
)

const (
	chunkShift = 12 // 4096 nodes per chunk
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
	maxChunks  = (indexMask + 1) >> chunkShift

	// nLockStripes sizes the striped lock table. The SPLASH codes hash
	// cells onto a fixed lock array the same way; 1024 stripes keeps
	// false contention negligible for the processor counts studied.
	nLockStripes = 1024

	// MaxDepth bounds subdivision. Beyond it a leaf accepts any
	// number of bodies, which keeps coincident bodies from recursing
	// forever. 48 halvings of any realistic root cube reach below
	// physical resolution long before this.
	MaxDepth = 48
)

// arena holds the cells and leaves created by one allocator (one processor,
// or everyone when shared). Chunks never move once installed, so a *Cell
// or *Leaf obtained from a published Ref stays valid for the arena's
// lifetime. The chunk directories are fixed-size arrays of atomic
// pointers: installation races between allocators in a shared arena are
// resolved with compare-and-swap, and readers get the necessary
// happens-before edge from the atomic load.
type arena struct {
	cellChunks [maxChunks]atomic.Pointer[[chunkSize]Cell]
	leafChunks [maxChunks]atomic.Pointer[[chunkSize]Leaf]
	nCells     int64 // allocation cursors, atomic
	nLeaves    int64
}

// Store owns the node arenas, the striped lock table, and the build
// parameters shared by every tree built into it.
type Store struct {
	// LeafCap is k, the subdivision threshold: a leaf with more than
	// LeafCap bodies splits (except at MaxDepth).
	LeafCap int

	arenas []arena
	locks  [nLockStripes]sync.Mutex
	// top is the cut of the tree the last parallel pass over the store
	// walked (cut), kept so a warm pass allocates none of it; so two
	// parallel passes over one store must not run at once.
	top momentsTop
}

// NewStore creates a store with nArenas arenas (arena 0 is conventionally
// the shared/sequential arena; 1..P belong to processors) and subdivision
// threshold leafCap.
func NewStore(nArenas, leafCap int) *Store {
	if nArenas < 1 || nArenas > MaxArenas {
		panic(fmt.Sprintf("octree: nArenas %d out of range [1,%d]", nArenas, MaxArenas))
	}
	if leafCap < 1 {
		panic("octree: leafCap must be ≥ 1")
	}
	return &Store{
		LeafCap: leafCap,
		arenas:  make([]arena, nArenas),
	}
}

// Cell resolves a cell reference. The reference must be a cell.
func (s *Store) Cell(r Ref) *Cell {
	if !r.IsCell() {
		panic("octree: Cell() on " + r.String())
	}
	i := r.Index()
	return &s.arenas[r.Arena()].cellChunks[i>>chunkShift].Load()[i&chunkMask]
}

// Leaf resolves a leaf reference. The reference must be a leaf.
func (s *Store) Leaf(r Ref) *Leaf {
	if !r.IsLeaf() {
		panic("octree: Leaf() on " + r.String())
	}
	i := r.Index()
	return &s.arenas[r.Arena()].leafChunks[i>>chunkShift].Load()[i&chunkMask]
}

// AllocCell allocates a new cell in the given arena with every child Nil.
// Safe for concurrent use by multiple goroutines on the same arena (the
// ORIG algorithm's single shared array); allocation order, and therefore
// the Ref handed out, is then scheduling-dependent.
func (s *Store) AllocCell(arenaID int, cube vec.Cube, parent Ref, owner int) (Ref, *Cell) {
	a := &s.arenas[arenaID]
	idx := int(atomic.AddInt64(&a.nCells, 1) - 1)
	if idx > indexMask {
		panic("octree: arena cell capacity exhausted")
	}
	ci := idx >> chunkShift
	chunk := a.cellChunks[ci].Load()
	if chunk == nil {
		chunk = installChunk(&a.cellChunks[ci])
	}
	c := &chunk[idx&chunkMask]
	c.initChildren()
	c.Cube = cube
	c.Parent = parent
	c.Owner = int32(owner)
	c.Mass, c.COM, c.NBody, c.Cost = 0, vec.V3{}, 0, 0
	return CellRef(arenaID, idx), c
}

// AllocLeaf allocates a new leaf in the given arena. Same concurrency
// contract as AllocCell.
func (s *Store) AllocLeaf(arenaID int, cube vec.Cube, parent Ref, owner int) (Ref, *Leaf) {
	a := &s.arenas[arenaID]
	idx := int(atomic.AddInt64(&a.nLeaves, 1) - 1)
	if idx > indexMask {
		panic("octree: arena leaf capacity exhausted")
	}
	ci := idx >> chunkShift
	chunk := a.leafChunks[ci].Load()
	if chunk == nil {
		chunk = installChunk(&a.leafChunks[ci])
	}
	l := &chunk[idx&chunkMask]
	l.Cube = cube
	l.Parent = parent
	l.Owner = int32(owner)
	l.Retired = false
	if l.Bodies == nil {
		l.Bodies = make([]int32, 0, s.LeafCap)
	} else {
		l.Bodies = l.Bodies[:0]
	}
	l.Mass, l.COM, l.Cost = 0, vec.V3{}, 0
	return LeafRef(arenaID, idx), l
}

// installChunk publishes a fresh chunk into slot, keeping the winner if
// several allocators race.
func installChunk[T any](slot *atomic.Pointer[[chunkSize]T]) *[chunkSize]T {
	fresh := new([chunkSize]T)
	if slot.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return slot.Load()
}

// Lock acquires the striped lock guarding node r and returns it for the
// caller to unlock. Distinct nodes may share a stripe; that is the same
// compromise the SPLASH lock-hashing scheme makes and is safe (coarser
// exclusion, never finer).
func (s *Store) Lock(r Ref) *sync.Mutex {
	m := &s.locks[lockStripe(r)]
	m.Lock()
	return m
}

func lockStripe(r Ref) int {
	// Fibonacci hashing spreads sequential indices across stripes.
	return int((uint32(r) * 2654435769) >> (32 - 10))
}

// CellsIn reports how many cells arena a has allocated.
func (s *Store) CellsIn(a int) int { return int(atomic.LoadInt64(&s.arenas[a].nCells)) }

// LeavesIn reports how many leaves arena a has allocated.
func (s *Store) LeavesIn(a int) int { return int(atomic.LoadInt64(&s.arenas[a].nLeaves)) }

// TotalCells reports the number of cells allocated across all arenas.
func (s *Store) TotalCells() int {
	n := 0
	for i := range s.arenas {
		n += s.CellsIn(i)
	}
	return n
}

// TotalLeaves reports the number of leaves allocated across all arenas.
func (s *Store) TotalLeaves() int {
	n := 0
	for i := range s.arenas {
		n += s.LeavesIn(i)
	}
	return n
}

// StoreStats is a snapshot of one store's memory accounting: how many
// nodes the current tree holds (rewound by Reset) versus how much chunk
// memory the store retains across resets. Retention is the point of
// session pooling — RetainedBytes is what a pooled builder keeps warm
// instead of reallocating — so the engine exposes these as the
// partree_store_* gauges.
type StoreStats struct {
	Cells  int64 // cells allocated since the last Reset, across arenas
	Leaves int64 // leaves allocated since the last Reset
	// CellChunks and LeafChunks count installed chunks, which survive
	// Reset and are reused by later builds.
	CellChunks int64
	LeafChunks int64
	// RetainedBytes is the chunk memory the store holds onto: installed
	// chunks times their node size. Leaf body slices (reused in place by
	// AllocLeaf) are not counted.
	RetainedBytes int64
}

// Add accumulates b into a (for aggregating over several stores).
func (a StoreStats) Add(b StoreStats) StoreStats {
	a.Cells += b.Cells
	a.Leaves += b.Leaves
	a.CellChunks += b.CellChunks
	a.LeafChunks += b.LeafChunks
	a.RetainedBytes += b.RetainedBytes
	return a
}

// Stats snapshots the store's live node counts and retained chunk
// memory. Safe for concurrent use with builds (atomic loads only); a
// snapshot taken mid-build is a consistent-enough lower bound.
func (s *Store) Stats() StoreStats {
	var st StoreStats
	for i := range s.arenas {
		a := &s.arenas[i]
		st.Cells += atomic.LoadInt64(&a.nCells)
		st.Leaves += atomic.LoadInt64(&a.nLeaves)
		for c := range a.cellChunks {
			if a.cellChunks[c].Load() != nil {
				st.CellChunks++
			}
		}
		for c := range a.leafChunks {
			if a.leafChunks[c].Load() != nil {
				st.LeafChunks++
			}
		}
	}
	st.RetainedBytes = st.CellChunks*chunkSize*int64(unsafe.Sizeof(Cell{})) +
		st.LeafChunks*chunkSize*int64(unsafe.Sizeof(Leaf{}))
	return st
}

// Reset rewinds every arena so the store's memory can be reused for the
// next time step without reallocating chunks. Outstanding Refs become
// invalid. The UPDATE algorithm does not call this — it keeps its tree.
func (s *Store) Reset() {
	for i := range s.arenas {
		atomic.StoreInt64(&s.arenas[i].nCells, 0)
		atomic.StoreInt64(&s.arenas[i].nLeaves, 0)
	}
}

// Tree couples a store with the root reference of a built tree.
type Tree struct {
	Store *Store
	Root  Ref
}

// RootCube returns the cube of the root node.
func (t *Tree) RootCube() vec.Cube {
	if t.Root.IsNil() {
		return vec.Cube{}
	}
	if t.Root.IsLeaf() {
		return t.Store.Leaf(t.Root).Cube
	}
	return t.Store.Cell(t.Root).Cube
}

// DepthOf recovers a node's depth from its cube size: cubes halve exactly
// at every level, so the ratio to the root size is a power of two.
func (t *Tree) DepthOf(c vec.Cube) int {
	return int(math.Round(math.Log2(t.RootCube().Size / c.Size)))
}

// RescaleFork is Rescale of the whole tree to root over the caller's
// fork/join, cut and dealt as ComputeMomentsFork does: the cubes of the
// children of the cut's cells above its tasks are set breadth-first,
// parents first, then the workers rescale their runs of the tasks'
// subtrees. The cubes are Rescale's bit for bit.
func RescaleFork(t *Tree, root vec.Cube, nWorkers int, fork func(p int, fn func(w int))) {
	s := t.Store
	if nWorkers <= 1 || !t.Root.IsCell() {
		fork(1, func(int) { s.Rescale(t.Root, root) })
		return
	}
	top := s.cut(t.Root, nWorkers)
	s.Cell(t.Root).Cube = root
	for k, r := range top.cells {
		if top.pending[k].Load() == 0 {
			continue
		}
		c := s.Cell(r)
		for o := vec.Octant(0); o < vec.NOctants; o++ {
			if ch := c.Child(o); ch.IsLeaf() {
				s.Leaf(ch).Cube = c.Cube.Child(o)
			} else if ch.IsCell() {
				s.Cell(ch).Cube = c.Cube.Child(o)
			}
		}
	}
	runs := par.EvenRuns(len(top.tasks), nWorkers)
	fork(nWorkers, func(w int) {
		for i := runs.Next(w); i >= 0; i = runs.Next(w) {
			r := top.cells[top.tasks[i]]
			s.Rescale(r, s.Cell(r).Cube)
		}
	})
}

// Rescale rewrites the cube of every node of the subtree at r after its
// cube was resized to cube (UPDATE's bounds refresh), serially.
func (s *Store) Rescale(r Ref, cube vec.Cube) {
	if r.IsLeaf() {
		s.Leaf(r).Cube = cube
		return
	}
	c := s.Cell(r)
	c.Cube = cube
	for o := vec.Octant(0); o < vec.NOctants; o++ {
		if ch := c.Child(o); !ch.IsNil() {
			s.Rescale(ch, cube.Child(o))
		}
	}
}
