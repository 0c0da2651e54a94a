// Package core implements the paper's contribution: five parallel
// algorithms for building the Barnes-Hut octree on a shared address space
// — ORIG, LOCAL (the paper's ORIG-LOCAL), UPDATE, PARTREE, and SPACE —
// as real concurrent Go code over the internal/octree substrate.
//
// All five builders produce a tree over the same bodies; ORIG, LOCAL,
// UPDATE, and PARTREE partition the *bodies* for tree building exactly as
// they were partitioned for force calculation in the previous time step,
// while SPACE partitions *space* anew, trading locality and load balance
// for the complete elimination of locking. Each builder reports per-
// processor synchronization and allocation counts so the experiments can
// reproduce the paper's Figure 15 (dynamic lock counts).
package core

import (
	"fmt"
	"strings"
	"time"

	"partree/internal/octree"
	"partree/internal/par"
	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/trace"
	"partree/internal/vec"
)

// Algorithm identifies one of the paper's five tree-building algorithms.
type Algorithm int

const (
	// ORIG is the SPLASH-1 algorithm: concurrent insertion into a single
	// shared tree, all nodes allocated from one global shared array.
	ORIG Algorithm = iota
	// LOCAL is the SPLASH-2 algorithm (the paper's ORIG-LOCAL): the same
	// concurrent insertion, but with per-processor cell and leaf arrays,
	// distinct internal/leaf node types and private counters.
	LOCAL
	// UPDATE incrementally repairs the previous step's tree instead of
	// rebuilding: only bodies that crossed their old leaf's boundary move.
	// Whenever it must start from scratch it builds as SPACE does.
	UPDATE
	// PARTREE builds a private local tree per processor without any
	// synchronization and then merges whole cells/subtrees into the
	// shared global tree, greatly reducing the number of lock operations.
	PARTREE
	// SPACE repartitions space for the build: the domain is recursively
	// subdivided until every subspace holds at most a threshold number of
	// bodies (creating the top of the octree in the process), subspaces
	// are assigned to processors, and each processor builds and attaches
	// its subtrees with no locking at all.
	SPACE

	// NumAlgorithms is the number of tree-building algorithms.
	NumAlgorithms = int(SPACE) + 1
)

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case ORIG:
		return "ORIG"
	case LOCAL:
		return "LOCAL"
	case UPDATE:
		return "UPDATE"
	case PARTREE:
		return "PARTREE"
	case SPACE:
		return "SPACE"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm converts a CLI name (case-insensitive) to an
// Algorithm. The error lists the valid names.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a := Algorithm(0); int(a) < NumAlgorithms; a++ {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (valid: %s)", s, strings.Join(AlgorithmNames(), ", "))
}

// AlgorithmNames lists the five algorithm names in the paper's order.
func AlgorithmNames() []string {
	names := make([]string, 0, NumAlgorithms)
	for _, a := range Algorithms() {
		names = append(names, a.String())
	}
	return names
}

// MarshalText renders the algorithm by name (so JSON specs say "SPACE",
// not 4).
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText parses an algorithm name, case-insensitively.
func (a *Algorithm) UnmarshalText(b []byte) error {
	v, err := ParseAlgorithm(string(b))
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// Algorithms lists all five in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{ORIG, LOCAL, UPDATE, PARTREE, SPACE}
}

// Input is everything a builder needs for one time step.
type Input struct {
	Bodies *phys.Bodies
	// Assign holds each processor's body list from the previous step's
	// force-calculation partition (evenly split on the first step). The
	// lists must cover every body exactly once, and there must be 1 to
	// Config.P of them: Build panics otherwise.
	Assign [][]int32
	// Step is the time-step number (0-based); UPDATE rebuilds on step 0
	// and repairs afterwards. Steps must be continuous (each build's Step
	// one past the previous build's): a resident UPDATE builder treats a
	// gap as a restart and rebuilds from scratch.
	Step int
	// Rebuild requests that a resident builder discard its retained tree
	// and rebuild from scratch this step even when an incremental repair
	// would be possible (a streaming session's rebuild rule asks for it).
	// UPDATE honors it with SPACE's zero-lock build, the build all its
	// fresh starts take; the rebuilding algorithms, which start fresh
	// every step anyway, ignore it.
	Rebuild bool
}

// P returns the processor count implied by the assignment.
func (in *Input) P() int { return len(in.Assign) }

// Builder is one tree-building algorithm. Builders may keep state between
// steps (UPDATE keeps its whole tree; the others keep reusable stores).
type Builder interface {
	Algorithm() Algorithm
	// Build constructs (or repairs) the octree for the step and computes
	// moments. The returned tree remains owned by the builder: it is
	// valid until the next Build call.
	Build(in *Input) (*octree.Tree, *Metrics)
	// Store returns the octree store the builder retains across Build
	// calls — the memory a pooled session keeps warm.
	Store() *octree.Store
}

// Config carries the tuning parameters shared by the builders.
type Config struct {
	P       int // number of processors (goroutines)
	LeafCap int // subdivision threshold k (bodies per leaf)
	// Trace, when non-nil and enabled, has every build copy its
	// per-processor phase time (Metrics.PerP[w].PhaseNs, stamped on every
	// build either way) into a trace.Summary on Metrics.Trace once the
	// build ends. A nil or disabled recorder costs one check per build.
	Trace *trace.Recorder
}

// Normalized returns c with the documented defaults filled in: at least
// one processor, leaf capacity 8 (SPLASH-2's k). It is the one place
// those defaults are written; New applies it, and every layer that takes
// a P or k before a builder exists (runner specs, nbody options, session
// open records, pool keys) calls it rather than restate them.
func (c Config) Normalized() Config {
	if c.P <= 0 {
		c.P = 1
	}
	if c.LeafCap <= 0 {
		c.LeafCap = 8
	}
	return c
}

// New creates a builder for the given algorithm.
func New(a Algorithm, cfg Config) Builder {
	cfg = cfg.Normalized()
	switch a {
	case ORIG:
		return newOrig(cfg)
	case LOCAL:
		return newLocal(cfg)
	case UPDATE:
		return newUpdate(cfg)
	case PARTREE:
		return newPartree(cfg)
	case SPACE:
		return newSpace(cfg)
	}
	panic("core: unknown algorithm")
}

// EvenAssign splits bodies 0..n-1 into p contiguous even chunks — the
// paper's first-step assignment.
func EvenAssign(n, p int) [][]int32 {
	out := make([][]int32, p)
	for w := 0; w < p; w++ {
		lo, hi := n*w/p, n*(w+1)/p
		chunk := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			chunk = append(chunk, int32(i))
		}
		out[w] = chunk
	}
	return out
}

// SpatialAssign splits the bodies into p spatially compact even chunks:
// contiguous ranges of the Morton order (partition.Order, one radix sort)
// — a stand-in for a settled costzones partition when benchmarking a
// single build outside a full simulation. The paper's
// ORIG/LOCAL/UPDATE/PARTREE builds all assume the body partition carries
// physical locality ("if the partitioning incorporates physical locality,
// this overhead should be small"). The chunks share one backing array,
// each capped at its own end so appending to one cannot reach the next.
func SpatialAssign(b *phys.Bodies, p int) [][]int32 {
	n := b.N()
	order := partition.Order(b.Pos, b.Bounds(vec.RootMargin))
	out := make([][]int32, p)
	for w := 0; w < p; w++ {
		lo, hi := n*w/p, n*(w+1)/p
		out[w] = order[lo:hi:hi]
	}
	return out
}

// slicesPerProc is how many slices per processor a phase that sweeps
// the bodies evenly cuts them into (parallelBounds, SPACE's counting
// rounds). The slices are dealt as par.Runs, so a processor that starts
// late — the first fork of a build often finds its helper gone — or runs
// slow takes fewer of them.
const slicesPerProc = 8

// parallelBounds computes the root bounding cube, the processors reading
// contiguous slices of the position column rather than gathering through
// their Assign lists: min and max are exact, so how the bodies are cut,
// and who reads which slice, does not change the cube.
func parallelBounds(in *Input, m *Metrics) vec.Cube {
	p, pos := in.P(), in.Bodies.Pos
	k := slicesPerProc * p
	lo, hi := make([]vec.V3, p), make([]vec.V3, p)
	runs := par.EvenRuns(k, p)
	m.fork(trace.PhasePartition, p, func(w int) {
		if len(pos) == 0 {
			return
		}
		// Every share starts from body 0, which moves no extreme, so one
		// that takes no slice leaves it as it is.
		l, h := pos[0], pos[0]
		for s := runs.Next(w); s >= 0; s = runs.Next(w) {
			for _, q := range pos[len(pos)*s/k : len(pos)*(s+1)/k] {
				l = l.Min(q)
				h = h.Max(q)
			}
		}
		lo[w], hi[w] = l, h
	})
	for w := 1; w < p; w++ {
		lo[0] = lo[0].Min(lo[w])
		hi[0] = hi[0].Max(hi[w])
	}
	return vec.BoxCube(lo[0], hi[0], vec.RootMargin)
}

// Timing records the builder's phase durations for the native benchmarks.
type Timing struct {
	Bounds  time.Duration // root sizing (and SPACE's counting/partitioning)
	Insert  time.Duration // loading bodies / merging / attaching
	Moments time.Duration // center-of-mass pass
}

// Total returns the summed build time.
func (t Timing) Total() time.Duration { return t.Bounds + t.Insert + t.Moments }
