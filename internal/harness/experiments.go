package harness

import (
	"fmt"

	"partree/internal/core"
	"partree/internal/runner"
	"partree/internal/stats"
)

// Experiment reproduces one table or figure from the paper.
type Experiment struct {
	ID    string
	Title string
	// Shape states the qualitative result the paper reports, which the
	// regenerated numbers should reproduce.
	Shape string
	// Tables declares the experiment's output for the session's options —
	// which specs each cell reads and how it prints them. It runs nothing:
	// Session.RunExperiment gathers the specs, runs them and renders.
	Tables func(s *Session) []Table
}

// All returns the experiments in the paper's order.
func All() []Experiment {
	return []Experiment{
		{
			ID:     "T1",
			Title:  "Table 1: best sequential execution time per platform and problem size",
			Shape:  "times scale ~N·logN; ordering Origin < Challenge < Typhoon-0 < Paragon (per-cycle cost)",
			Tables: table1,
		},
		{
			ID:     "F6",
			Title:  "Figure 6: whole-application speedups on SGI Challenge, 16 processors",
			Shape:  "all five algorithms speed up well (paper: 12-15); ORIG worst; differences small",
			Tables: fig6,
		},
		{
			ID:     "F7",
			Title:  "Figure 7: tree-building share of total time on Challenge (largest size)",
			Shape:  "share grows with processors but stays modest for every algorithm but ORIG",
			Tables: fig7,
		},
		{
			ID:     "F8",
			Title:  "Figure 8: whole-application speedups on Origin 2000, 30 processors",
			Shape:  "LOCAL/UPDATE/PARTREE/SPACE close together and scaling; ORIG clearly below",
			Tables: fig8,
		},
		{
			ID:     "T2",
			Title:  "Table 2: time spent in BARRIER operations on Origin 2000, 16 processors",
			Shape:  "ORIG's barrier time far above the others (paper: ~15x LOCAL); UPDATE next",
			Tables: table2,
		},
		{
			ID:     "F9",
			Title:  "Figure 9: tree-building phase speedups on Origin 2000, 30 processors",
			Shape:  "same relative picture as Figure 8, with much lower absolute speedups",
			Tables: fig9,
		},
		{
			ID:     "F10",
			Title:  "Figure 10: speedups on Origin 2000 for 16/24/30 processors (largest size)",
			Shape:  "LOCAL/UPDATE/PARTREE/SPACE scale with processors; ORIG lags",
			Tables: fig10,
		},
		{
			ID:     "F11",
			Title:  "Figure 11: tree-building share vs processors on Origin 2000 (largest size)",
			Shape:  "ORIG's tree share grows toward ~60% at 30 processors; others stay low",
			Tables: fig11,
		},
		{
			ID:     "F12",
			Title:  "Figure 12: speedups and tree-building share on Intel Paragon (HLRC SVM), 16 processors",
			Shape:  "ORIG/LOCAL near or below 1 (slowdowns); UPDATE poor; PARTREE better; only SPACE performs well with small tree share",
			Tables: fig12,
		},
		{
			ID:     "F13",
			Title:  "Figure 13: speedups and tree-building share on Typhoon-0 HLRC, 16 processors",
			Shape:  "SPACE vastly outperforms; PARTREE second; ORIG/LOCAL/UPDATE deliver slowdowns or near it; their tree share dominates",
			Tables: fig13,
		},
		{
			ID:     "F14",
			Title:  "Figure 14: tree-building phase speedups on Typhoon-0 HLRC, 16 processors",
			Shape:  "SPACE the only clear speedup (paper: ~1.5); lock-based algorithms are slower than sequential",
			Tables: fig14,
		},
		{
			ID:     "S15",
			Title:  "Section 4.4.2: Typhoon-0 fine-grain sequential consistency, 16 processors",
			Shape:  "differences compress: SPACE best (paper: ~7), LOCAL/UPDATE/PARTREE ~4, ORIG worse (false sharing at 64B)",
			Tables: s15,
		},
		{
			ID:     "F15",
			Title:  "Figure 15: dynamic lock counts per processor in tree building (Origin vs Typhoon-0 HLRC)",
			Shape:  "lock counts fall off quickly ORIG -> LOCAL -> UPDATE -> PARTREE -> SPACE(=0); HLRC needs extra locks vs Origin for the same algorithm",
			Tables: fig15,
		},
		{
			ID:     "X1",
			Title:  "Extension (paper §6 future work): algorithm comparison at larger scale on hardware coherence",
			Shape:  "on the Origin model at 32-64 processors the lock-based algorithms' tree shares climb and SPACE/PARTREE keep scaling — the commodity-friendly algorithms are also the large-scale ones",
			Tables: ext1,
		},
		{
			ID:     "X2",
			Title:  "Extension (paper §6 future work): does the best algorithm scale up on commodity architectures?",
			Shape:  "SPACE on the Typhoon-0 HLRC model keeps gaining with processors while LOCAL saturates and then regresses",
			Tables: ext2,
		},
		{
			ID:     "X3",
			Title:  "Extension (paper §1 premise): message-passing Barnes-Hut ports well everywhere",
			Shape:  "the ORB+LET message-passing code gets healthy speedups on every platform — including the SVM-class machines where LOCAL collapses — matching the premise that motivated the paper; SPACE closes most of the gap for the shared-address-space model",
			Tables: ext3,
		},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// cellKind is what a figure plots at one grid point.
type cellKind func(platform string, alg core.Algorithm, p, n int) Cell

// speedup is whole-application speedup over the platform's sequential run.
func (s *Session) speedup(platform string, alg core.Algorithm, p, n int) Cell {
	return Cell{[]runner.Spec{s.seq(platform, n), s.run(platform, alg, p, n)},
		func(rs []runner.Result) any { return rs[0].TotalNs / rs[1].TotalNs }}
}

// treeSpeedup is the tree-building phase's speedup alone (paper Figures 9
// and 14).
func (s *Session) treeSpeedup(platform string, alg core.Algorithm, p, n int) Cell {
	return Cell{[]runner.Spec{s.seq(platform, n), s.run(platform, alg, p, n)},
		func(rs []runner.Result) any { return rs[0].TreeNs / rs[1].TreeNs }}
}

// share is the tree-building share of total time; the one-processor
// point of a scaling figure is the sequential baseline.
func (s *Session) share(platform string, alg core.Algorithm, p, n int) Cell {
	run := s.run(platform, alg, p, n)
	if p == 1 {
		run = s.seq(platform, n)
	}
	return Cell{[]runner.Spec{run}, func(rs []runner.Result) any { return fmt.Sprintf("%.1f%%", 100*rs[0].TreeShare) }}
}

// barrier is the mean per-processor time in barriers.
func (s *Session) barrier(platform string, alg core.Algorithm, p, n int) Cell {
	return Cell{[]runner.Spec{s.run(platform, alg, p, n)},
		func(rs []runner.Result) any { return stats.Seconds(rs[0].BarrierNsMean) }}
}

// locks summarizes tree-building lock acquisitions across processors.
func (s *Session) locks(platform string, alg core.Algorithm, p, n int) Cell {
	return Cell{[]runner.Spec{s.run(platform, alg, p, n)}, func(rs []runner.Result) any {
		l := stats.Summarize(rs[0].LocksPerProc)
		return fmt.Sprintf("%.0f [%.0f..%.0f]", l.Mean, l.Min, l.Max)
	}}
}

// sweep declares every algorithm on one machine across problem sizes.
func sweep(caption, platform string, p int, sizes []int, kind cellKind) Table {
	return table(caption, "algorithm", core.Algorithms(), core.Algorithm.String, sizes, sizeLabel,
		func(alg core.Algorithm, n int) Cell { return kind(platform, alg, p, n) })
}

// scaling declares algorithms against processor counts at one size.
func scaling(caption, platform string, procs []int, n int, algs []core.Algorithm, kind cellKind) Table {
	return table(caption, "algorithm", algs, core.Algorithm.String, procs, procLabel,
		func(alg core.Algorithm, p int) Cell { return kind(platform, alg, p, n) })
}

func table1(s *Session) []Table {
	platforms := []string{"origin", "challenge", "typhoon-sc", "paragon"}
	return []Table{table("", "platform", platforms, displayName, s.Opts.EffectiveSizes(), sizeLabel,
		func(platform string, n int) Cell {
			return Cell{[]runner.Spec{s.seq(platform, n)},
				func(rs []runner.Result) any { return stats.Seconds(rs[0].TotalNs) }}
		})}
}

func fig6(s *Session) []Table {
	return []Table{sweep("Whole-application speedup, SGI Challenge, 16 processors:\n",
		"challenge", 16, s.Opts.EffectiveSizes(), s.speedup)}
}

func fig7(s *Session) []Table {
	n := s.Opts.MaxSize()
	return []Table{scaling(fmt.Sprintf("Tree-building share of total time, Challenge, %s bodies:\n", sizeLabel(n)),
		"challenge", []int{1, 8, 16}, n, core.Algorithms(), s.share)}
}

func fig8(s *Session) []Table {
	return []Table{sweep("Whole-application speedup, SGI Origin 2000, 30 processors:\n",
		"origin", 30, s.Opts.EffectiveSizes(), s.speedup)}
}

func table2(s *Session) []Table {
	sizes := s.Opts.EffectiveSizes()
	if len(sizes) > 2 {
		sizes = sizes[len(sizes)-2:]
	}
	return []Table{sweep("Mean per-processor BARRIER time, Origin 2000, 16 processors:\n",
		"origin", 16, sizes, s.barrier)}
}

func fig9(s *Session) []Table {
	return []Table{sweep("Tree-building phase speedup, Origin 2000, 30 processors:\n",
		"origin", 30, s.Opts.EffectiveSizes(), s.treeSpeedup)}
}

func fig10(s *Session) []Table {
	n := s.Opts.MaxSize()
	return []Table{scaling(fmt.Sprintf("Whole-application speedup vs processors, Origin 2000, %s bodies:\n", sizeLabel(n)),
		"origin", []int{16, 24, 30}, n, core.Algorithms(), s.speedup)}
}

func fig11(s *Session) []Table {
	n := s.Opts.MaxSize()
	return []Table{scaling(fmt.Sprintf("Tree-building share vs processors, Origin 2000, %s bodies:\n", sizeLabel(n)),
		"origin", []int{1, 8, 16, 24, 30}, n, core.Algorithms(), s.share)}
}

// speedupAndShare is Figures 12 and 13: speedups, then tree shares, of
// every algorithm on one SVM machine at 16 processors.
func speedupAndShare(s *Session, caption, platform string) []Table {
	sizes := s.Opts.EffectiveSizes()
	return []Table{
		sweep(caption, platform, 16, sizes, s.speedup),
		sweep("\nTree-building share of total time:\n", platform, 16, sizes, s.share),
	}
}

func fig12(s *Session) []Table {
	return speedupAndShare(s, "Whole-application speedup, Intel Paragon (HLRC SVM), 16 processors:\n"+
		"(the paper could only afford to run PARTREE and SPACE; the lock-based\n"+
		"algorithms were 'almost intolerably long' — visible below as ~1x or worse)\n", "paragon")
}

func fig13(s *Session) []Table {
	return speedupAndShare(s, "Whole-application speedup, Typhoon-0 (HLRC SVM), 16 processors:\n", "typhoon-hlrc")
}

func fig14(s *Session) []Table {
	return []Table{sweep("Tree-building phase speedup, Typhoon-0 HLRC, 16 processors:\n",
		"typhoon-hlrc", 16, s.Opts.EffectiveSizes(), s.treeSpeedup)}
}

func s15(s *Session) []Table {
	n := s.Opts.MaxSize()
	t := sweep(fmt.Sprintf("Whole-application speedup, Typhoon-0 fine-grain SC, 16 processors, %s bodies:\n", sizeLabel(n)),
		"typhoon-sc", 16, []int{n}, s.speedup)
	t.BarUnit = "x"
	return []Table{t}
}

func ext1(s *Session) []Table {
	n := s.Opts.MaxSize()
	t := scaling(fmt.Sprintf("Whole-application speedup and tree share, Origin 2000 model, %s bodies:\n", sizeLabel(n)),
		"origin", []int{16, 32, 48, 64}, n, core.Algorithms(), s.speedup)
	t.Header = append(t.Header, "tree%@64p")
	for i, alg := range core.Algorithms() {
		t.Rows[i].Cells = append(t.Rows[i].Cells, s.share("origin", alg, 64, n))
	}
	t.Note = "\nThe paper asked whether algorithms that port well to commodity platforms\n" +
		"are also the right algorithms for tightly-integrated systems at larger\n" +
		"scale; the tree-share column answers it.\n"
	return []Table{t}
}

func ext2(s *Session) []Table {
	n := s.Opts.MaxSize()
	return []Table{scaling(fmt.Sprintf("Whole-application speedup vs processors, Typhoon-0 HLRC model, %s bodies:\n", sizeLabel(n)),
		"typhoon-hlrc", []int{4, 8, 16, 32}, n, []core.Algorithm{core.LOCAL, core.PARTREE, core.SPACE}, s.speedup)}
}

func fig15(s *Session) []Table {
	n := s.Opts.MaxSize()
	return []Table{table(fmt.Sprintf("Tree-building lock acquisitions per processor, %s bodies, 16 processors,\n"+
		"%d measured steps (mean [min..max] across processors):\n\n", sizeLabel(n), s.Opts.MeasuredSteps),
		"algorithm", core.Algorithms(), core.Algorithm.String, []string{"origin", "typhoon-hlrc"}, displayName,
		func(alg core.Algorithm, platform string) Cell { return s.locks(platform, alg, 16, n) })}
}
