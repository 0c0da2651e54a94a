// Package verify is the differential-testing and invariant-audit layer
// behind the -check flag: every tree a parallel builder produces can be
// compared structurally against the sequential reference build
// (octree.BuildSerial), and every build's core.Metrics audited against
// conservation laws. The paper's timing comparisons are only meaningful
// because all five algorithms produce the same octree as the sequential
// code; this package turns that assumption into an always-on oracle
// (Dubinski's parallel tree code validates against a serial build the
// same way).
//
// The checks are layered:
//
//   - Tree: structural invariants (every body in exactly one live leaf,
//     body-in-cube containment, parent/child link consistency, octant
//     sub-cube geometry, no reachable retired nodes, leaf-cap respected),
//     every node's moments against a recomputation, bit for bit, plus,
//     for canonical builds, node-for-node equality with the serial
//     reference: the same cells and cubes, and each leaf's bodies in the
//     same (ascending index) order. Every builder keeps leaves in that
//     order, so the force pass sums in one order whatever the algorithm
//     or P, and a simulation's trajectory is the same bits.
//   - Metrics: per-processor counter conservation (BodiesBuilt sums to
//     n, allocation counters consistent with the live tree, the
//     zero-lock guarantee of SPACE's build, which every fresh UPDATE
//     build runs too).
//   - Build: Tree + Metrics for one Builder.Build outcome.
//   - Algorithm: a self-contained companion check that builds a fresh
//     tree with the given algorithm and verifies it (what simulated
//     specs run, since the platform simulator's tree is internal).
//
// UPDATE repairs the previous step's tree rather than rebuilding, so a
// repaired tree is legitimately non-canonical (cells are never
// collapsed); differential equality is demanded of every build that
// started from scratch — UPDATE's fresh builds included, whatever their
// step — and structural invariants always.
package verify

import (
	"fmt"
	"sync"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
	"partree/internal/vec"
)

// Canonical reports whether a build of alg must reproduce the serial
// reference tree exactly: every build that started from scratch. Every
// algorithm but UPDATE always does; UPDATE's metrics say whether this
// build did (its first, a requested rebuild, a restart).
func Canonical(alg core.Algorithm, m *core.Metrics) bool {
	return alg != core.UPDATE || m.FreshRebuild
}

// builtBySpace reports whether m's build ran SPACE's zero-lock path:
// SPACE itself, or any fresh UPDATE build, which runs the same build
// into its resident store.
func builtBySpace(m *core.Metrics) bool {
	return m.Alg == core.SPACE || m.Alg == core.UPDATE && m.FreshRebuild
}

// Tree verifies one built tree against the body data it was built from.
// It checks the structural invariants and the moments, and — when
// canonical — builds the serial reference over the same positions and
// demands equality (same cells and cubes, each leaf's bodies in the same
// order) and matching live node counts. The first violation found is
// returned.
func Tree(t *octree.Tree, bodies *phys.Bodies, canonical bool) error {
	d := octree.BodyData{Pos: bodies.Pos, Mass: bodies.Mass, Cost: bodies.Cost}
	if err := octree.Check(t, d, octree.CheckOptions{Canonical: canonical, Moments: true}); err != nil {
		return fmt.Errorf("verify: invariants: %w", err)
	}
	if !canonical {
		return nil
	}
	s := refStores.Get().(*octree.Store)
	defer refStores.Put(s)
	s.Reset()
	s.LeafCap = t.Store.LeafCap
	ref := octree.BuildSerialInto(s, bodies.Bounds(vec.RootMargin), bodies.Pos)
	if err := octree.Equal(t, ref); err != nil {
		return fmt.Errorf("verify: differs from serial reference: %w", err)
	}
	// Equality implies matching shape; pin the aggregate counts too so a
	// regression in Equal itself cannot silently pass.
	got, want := octree.CollectStats(t), octree.CollectStats(ref)
	if got.Cells != want.Cells || got.Leaves != want.Leaves || got.MaxDepth != want.MaxDepth {
		return fmt.Errorf("verify: stats diverge from serial reference: %dc/%dl d%d vs %dc/%dl d%d",
			got.Cells, got.Leaves, got.MaxDepth, want.Cells, want.Leaves, want.MaxDepth)
	}
	return nil
}

// refStores holds the single-arena stores Tree builds its serial
// references into: a check resets a store it has used before instead of
// allocating and clearing a fresh one.
var refStores = sync.Pool{New: func() any { return octree.NewStore(1, 1) }}

// Metrics audits one build's counters against the conservation laws the
// builders guarantee. t is the tree the metrics describe, n the number of
// bodies loaded, rebuild whether this build started from an empty store
// (every build except UPDATE's repairs, whose counters are incremental
// and carry no whole-tree laws).
//
// Laws, in order of generality:
//
//  1. Σ_p BodiesBuilt == n — every body loaded exactly once, whichever
//     processor did it (all algorithms, all steps).
//  2. SPACE takes zero tree-build locks and therefore zero retries (the
//     algorithm's entire point) — and so does every fresh UPDATE build,
//     which is SPACE's build.
//  3. Rebuilds allocate every live node this step: TotalLeaves ≥ live
//     leaves, and TotalCells ≥ live cells − 1 (the root is allocated by
//     the builder directly, outside the per-processor counters).
//  4. ORIG, LOCAL and SPACE's path never discard an allocated cell, so
//     for them law 3's cell bound is an equality; PARTREE drops local
//     roots and cells whose subspace already exists globally, so only
//     the inequality holds. SPACE sorts its subtrees rather than
//     inserting them, so it never splits a leaf either: on its path —
//     SPACE and every fresh UPDATE build — the leaf bound is an equality
//     too. PARTREE sorts its local trees the same way, but its merge
//     drops a local leaf it combines into a global one and, on
//     overflow, inserts into a private cell that can split a leaf, so
//     its leaf bound stays an inequality.
//  5. On the inserting paths, ORIG and LOCAL, every allocated cell
//     replaced exactly one subdivided (retired) leaf: TotalLeaves ==
//     live leaves + TotalCells. They also lock at least once per body
//     loaded.
//
// (Runner.AuditObs audits the runner's counters the same way. The root's
// Cost equals the sum of the body costs without a law of its own: Tree's
// moments check recomputes every node's Cost exactly, from bodies that
// each sit in exactly one leaf.)
func Metrics(m *core.Metrics, t *octree.Tree, n int, rebuild bool) error {
	if built := m.TotalBodiesBuilt(); built != int64(n) {
		return fmt.Errorf("verify: metrics: BodiesBuilt sums to %d, want %d", built, n)
	}
	space := builtBySpace(m)
	if space {
		if l := m.TotalLocks(); l != 0 {
			return fmt.Errorf("verify: metrics: %s took %d tree-build locks on SPACE's path, want 0", m.Alg, l)
		}
		if r := m.TotalRetries(); r != 0 {
			return fmt.Errorf("verify: metrics: %s reports %d retries on SPACE's path, which takes no lock", m.Alg, r)
		}
	}
	if !rebuild {
		return nil
	}
	live := octree.CollectStats(t)
	cells, leaves := m.TotalCells(), m.TotalLeaves()
	liveCells := int64(live.Cells - 1) // root uncounted
	if liveCells < 0 {
		liveCells = 0
	}
	if leaves < int64(live.Leaves) {
		return fmt.Errorf("verify: metrics: %d leaves allocated < %d live leaves", leaves, live.Leaves)
	}
	if cells < liveCells {
		return fmt.Errorf("verify: metrics: %d cells allocated < %d live non-root cells", cells, liveCells)
	}
	if m.Alg != core.PARTREE && cells != liveCells {
		return fmt.Errorf("verify: metrics: %s allocated %d cells, want exactly %d (live non-root)",
			m.Alg, cells, liveCells)
	}
	switch {
	case space:
		if leaves != int64(live.Leaves) {
			return fmt.Errorf("verify: metrics: %s allocated %d leaves on SPACE's path, want exactly the %d live",
				m.Alg, leaves, live.Leaves)
		}
	case m.Alg == core.ORIG || m.Alg == core.LOCAL:
		if leaves != int64(live.Leaves)+cells {
			return fmt.Errorf("verify: metrics: %s allocated %d leaves, want live %d + subdivided %d",
				m.Alg, leaves, live.Leaves, cells)
		}
		if n > 0 && m.TotalLocks() < int64(n) {
			return fmt.Errorf("verify: metrics: %s took %d locks for %d bodies (at least one per body expected)",
				m.Alg, m.TotalLocks(), n)
		}
	}
	return nil
}

// Build verifies one Builder.Build outcome end to end: the tree against
// the bodies (differentially, when the build started from scratch) and
// the metrics against the conservation laws. m must be the build's own
// metrics; step only labels errors.
func Build(alg core.Algorithm, t *octree.Tree, m *core.Metrics, bodies *phys.Bodies, step int) error {
	canonical := Canonical(alg, m)
	if err := Tree(t, bodies, canonical); err != nil {
		return fmt.Errorf("%s step %d: %w", alg, step, err)
	}
	if err := Metrics(m, t, bodies.N(), canonical); err != nil {
		return fmt.Errorf("%s step %d: %w", alg, step, err)
	}
	return nil
}

// Algorithm is the self-contained companion check: it builds one fresh
// tree over bodies with the given algorithm and configuration and
// verifies it differentially. Simulated specs run this (the platform
// simulator's tree is internal to the replay), and it is the cheapest
// way to assert "this algorithm is correct for this workload" without a
// whole simulation.
func Algorithm(alg core.Algorithm, bodies *phys.Bodies, p, leafCap int) error {
	if p <= 0 {
		p = 1
	}
	bld := core.New(alg, core.Config{P: p, LeafCap: leafCap})
	in := &core.Input{Bodies: bodies, Assign: core.EvenAssign(bodies.N(), p)}
	t, m := bld.Build(in)
	return Build(alg, t, m, bodies, 0)
}
