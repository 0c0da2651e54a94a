package simalg

import (
	"testing"

	"partree/internal/core"
	"partree/internal/memsim"
	"partree/internal/phys"
)

// smallCfg is one measured step at the SPLASH-2 k, θ and Δt, which Run
// takes as given.
func smallCfg(pl memsim.Platform, p int) Config {
	return Config{Platform: pl, P: p, LeafCap: 8, Theta: 1, Dt: 0.025, MeasuredSteps: 1}
}

func TestRunAllAlgorithmsAllPlatforms(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 1500, 7)
	for _, pl := range memsim.AllPlatforms(4) {
		for _, alg := range core.Algorithms() {
			o := Run(alg, b, smallCfg(pl, 4))
			if o.TotalNs() <= 0 {
				t.Fatalf("%v on %s: nonpositive total", alg, pl.Name)
			}
			if o.TreeNs <= 0 || o.ForceNs <= 0 || o.UpdateNs <= 0 {
				t.Fatalf("%v on %s: empty phase: %+v", alg, pl.Name, o)
			}
			if o.Interactions <= 0 {
				t.Fatalf("%v on %s: no interactions", alg, pl.Name)
			}
		}
	}
}

func TestSimDeterministic(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 1200, 3)
	a1 := Run(core.PARTREE, b, smallCfg(memsim.TyphoonHLRC(), 4))
	a2 := Run(core.PARTREE, b, smallCfg(memsim.TyphoonHLRC(), 4))
	if a1.TotalNs() != a2.TotalNs() || a1.TotalLocks() != a2.TotalLocks() {
		t.Fatalf("nondeterministic: %v vs %v", a1, a2)
	}
}

func TestSimLockOrdering(t *testing.T) {
	// SPACE must use zero locks; PARTREE far fewer than LOCAL; UPDATE
	// (incremental, little motion) fewer than LOCAL.
	b := phys.Generate(phys.ModelPlummer, 3000, 5)
	cfg := smallCfg(memsim.Origin2000(8), 8)
	locks := map[core.Algorithm]int64{}
	for _, alg := range core.Algorithms() {
		locks[alg] = Run(alg, b, cfg).TotalLocks()
	}
	if locks[core.SPACE] != 0 {
		t.Fatalf("SPACE locks = %d", locks[core.SPACE])
	}
	if locks[core.PARTREE] == 0 || locks[core.PARTREE]*2 >= locks[core.LOCAL] {
		t.Fatalf("PARTREE locks %d not well below LOCAL %d", locks[core.PARTREE], locks[core.LOCAL])
	}
	if locks[core.UPDATE]*2 >= locks[core.LOCAL] {
		t.Fatalf("UPDATE locks %d not well below LOCAL %d", locks[core.UPDATE], locks[core.LOCAL])
	}
	if locks[core.ORIG] < locks[core.LOCAL] {
		t.Fatalf("ORIG locks %d below LOCAL %d", locks[core.ORIG], locks[core.LOCAL])
	}
}

func TestSimTreesAreCorrect(t *testing.T) {
	// The simulated builders run real algorithm logic on a real octree;
	// their trees must carry every body exactly once. We verify via a
	// dedicated instrumented run that exposes the final structure —
	// here, indirectly: interactions must equal a native reference run.
	b := phys.Generate(phys.ModelPlummer, 1000, 11)
	var ref int64
	for i, alg := range core.Algorithms() {
		o := Run(alg, b, smallCfg(memsim.Challenge(), 4))
		if i == 0 {
			ref = o.Interactions
			continue
		}
		// UPDATE's tree shape can drift slightly (never collapses), so
		// interaction counts may differ marginally; others are canonical
		// and identical.
		if alg == core.UPDATE {
			if o.Interactions < ref*9/10 || o.Interactions > ref*11/10 {
				t.Fatalf("%v interactions %d far from reference %d", alg, o.Interactions, ref)
			}
			continue
		}
		if o.Interactions != ref {
			t.Fatalf("%v interactions %d != reference %d", alg, o.Interactions, ref)
		}
	}
}

func TestHLRCPunishesLockHeavyBuilders(t *testing.T) {
	// The paper's headline: on page-based SVM, the lock-per-body
	// algorithms spend most of their time in tree building, while SPACE
	// keeps it small; SPACE beats LOCAL overall by a wide margin.
	b := phys.Generate(phys.ModelPlummer, 4000, 13)
	cfg := smallCfg(memsim.TyphoonHLRC(), 8)
	local := Run(core.LOCAL, b, cfg)
	space := Run(core.SPACE, b, cfg)
	if space.TotalNs() >= local.TotalNs() {
		t.Fatalf("SPACE %v not faster than LOCAL %v on HLRC", space.TotalNs(), local.TotalNs())
	}
	if local.TreeShare() < 0.4 {
		t.Fatalf("LOCAL tree share %.2f unexpectedly small on HLRC", local.TreeShare())
	}
	if space.TreeShare() > 0.35 {
		t.Fatalf("SPACE tree share %.2f unexpectedly large on HLRC", space.TreeShare())
	}
}

func TestHardwareCoherentToleratesLocks(t *testing.T) {
	// On the Origin model the algorithms should be comparable: LOCAL
	// within 2x of SPACE overall.
	b := phys.Generate(phys.ModelPlummer, 4000, 17)
	cfg := smallCfg(memsim.Origin2000(8), 8)
	local := Run(core.LOCAL, b, cfg)
	space := Run(core.SPACE, b, cfg)
	ratio := local.TotalNs() / space.TotalNs()
	if ratio > 2.0 || ratio < 0.5 {
		t.Fatalf("Origin: LOCAL/SPACE ratio %.2f outside [0.5,2]", ratio)
	}
}

func TestSequentialBaseline(t *testing.T) {
	b := phys.Generate(phys.ModelPlummer, 1500, 19)
	cfg := smallCfg(memsim.Origin2000(1), 1)
	cfg.Sequential = true
	o := Run(core.LOCAL, b, cfg)
	if o.TotalLocks() != 0 {
		t.Fatalf("sequential run took %d locks", o.TotalLocks())
	}
	if o.TreeShare() > 0.15 {
		t.Fatalf("sequential tree share %.2f; paper says <3%%-ish", o.TreeShare())
	}
	// Parallel run should be faster in simulated time.
	par := Run(core.LOCAL, b, smallCfg(memsim.Origin2000(8), 8))
	if par.TotalNs() >= o.TotalNs() {
		t.Fatalf("8-proc Origin run %v not faster than sequential %v", par.TotalNs(), o.TotalNs())
	}
}

func TestSpeedupSanityChallenge(t *testing.T) {
	// On the bus model all algorithms should deliver decent speedups at
	// moderate processor counts.
	b := phys.Generate(phys.ModelPlummer, 4000, 23)
	seqCfg := smallCfg(memsim.Challenge(), 1)
	seqCfg.Sequential = true
	seq := Run(core.LOCAL, b, seqCfg).TotalNs()
	for _, alg := range core.Algorithms() {
		par := Run(alg, b, smallCfg(memsim.Challenge(), 8)).TotalNs()
		sp := seq / par
		if sp < 3 {
			t.Fatalf("%v speedup %.2f on Challenge too low", alg, sp)
		}
	}
}

func TestUpdateMovesFewBodies(t *testing.T) {
	// With the default dt the vast majority of bodies stay in their
	// leaves between steps; UPDATE's measured lock count must be a small
	// fraction of a rebuild's.
	b := phys.Generate(phys.ModelPlummer, 3000, 29)
	cfg := smallCfg(memsim.Origin2000(4), 4)
	cfg.MeasuredSteps = 2
	upd := Run(core.UPDATE, b, cfg)
	loc := Run(core.LOCAL, b, cfg)
	if upd.TotalLocks()*3 >= loc.TotalLocks() {
		t.Fatalf("UPDATE locks %d not ≪ LOCAL %d", upd.TotalLocks(), loc.TotalLocks())
	}
}
