// Package harness declares the paper's experiments — every table and
// figure in the evaluation section — as tables of runner.Spec cells over
// the platform simulator, plus the native-execution extras, and renders
// them from runner.Result. `partree paperrepro` drives it.
package harness

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

	"partree/internal/core"
	"partree/internal/mp"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/stats"
)

// Options configure a reproduction session.
type Options struct {
	// Sizes are the problem sizes swept (bodies). The paper uses 8k-512k;
	// the default keeps runs quick, -large extends it.
	Sizes []int
	// Large switches to the extended size sweep.
	Large bool
	// Seed for the Plummer model.
	Seed int64
	// LeafCap is the bodies-per-leaf threshold k.
	LeafCap int
	// MeasuredSteps per run (the paper times a few steps after warmup).
	MeasuredSteps int
	// Check verifies every sweep cell's tree against the serial reference
	// (a native companion build per cell; see runner.Spec.Check).
	Check bool
}

// EffectiveSizes returns the size sweep honoring Large.
func (o Options) EffectiveSizes() []int {
	if o.Large {
		return append(append([]int{}, o.Sizes...), 32768, 65536, 131072)
	}
	return o.Sizes
}

// MaxSize returns the largest size in the sweep (used by the experiments
// that the paper runs at a single large size).
func (o Options) MaxSize() int { return slices.Max(o.EffectiveSizes()) }

// Session executes experiments over a shared runner.Runner, whose
// concurrency-safe cache lets experiments share sweeps (the speedup
// figures and the phase-share figures reuse the same runs) and whose
// engine bounds how many of a figure's cells run at once.
type Session struct {
	Opts Options
	r    *runner.Runner

	// mpStep takes X3's native message-passing measurement (mp.Step; a
	// field so a test can count the steps taken).
	mpStep func(*phys.Bodies, mp.Options) mp.StepStats

	// obs tracks live sweep progress (cells done/total, current figure);
	// see obs.go. Always maintained, exposed only under -http.
	obs sessionObs
}

// NewSession creates a session executing its sweep cells through r,
// whose engine bounds how many run at once. Zero Options fields select
// the quick configuration.
func NewSession(r *runner.Runner, opts Options) *Session {
	opts.LeafCap = cmp.Or(opts.LeafCap, 8)
	opts.MeasuredSteps = cmp.Or(opts.MeasuredSteps, 2)
	opts.Seed = cmp.Or(opts.Seed, 1998)
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{4096, 8192, 16384}
	}
	s := &Session{Opts: opts, r: r, mpStep: mp.Step}
	s.obs.experiments = obs.NewCounter("partree_harness_experiments_started_total",
		"Experiments (tables/figures) started this session.")
	return s
}

// spec maps one sweep cell onto the runner's typed Spec.
func (s *Session) spec(platform string, alg core.Algorithm, p, n int, seq bool) runner.Spec {
	return runner.Spec{
		Backend:    runner.Simulated,
		Platform:   platform,
		Alg:        alg,
		Procs:      p,
		Bodies:     n,
		LeafCap:    s.Opts.LeafCap,
		Steps:      s.Opts.MeasuredSteps,
		Seed:       s.Opts.Seed,
		Sequential: seq,
		Check:      s.Opts.Check,
	}
}

// run is the spec of alg on the platform (a runner.PlatformNames name)
// with p simulated processors and n bodies; seq is that of the platform's
// best-sequential baseline: one processor, no locking anywhere (the
// paper's speedup denominator).
func (s *Session) run(platform string, alg core.Algorithm, p, n int) runner.Spec {
	return s.spec(platform, alg, p, n, false)
}

func (s *Session) seq(platform string, n int) runner.Spec {
	return s.spec(platform, core.LOCAL, 1, n, true)
}

// Outcome runs (or recalls) one cell outside any experiment; Seq, the
// platform's sequential baseline.
func (s *Session) Outcome(platform string, alg core.Algorithm, p, n int) runner.Result {
	return s.r.Run(context.Background(), s.run(platform, alg, p, n))
}

func (s *Session) Seq(platform string, n int) runner.Result {
	return s.r.Run(context.Background(), s.seq(platform, n))
}

// RunExperiment regenerates one experiment in one pass: its tables are
// declared, the distinct specs their cells read are fanned out once across
// the runner's engine slots, and the tables are rendered from the results.
// Rendering is serial and every result is keyed by spec, so the output is
// that of a serial run. A cell that reads a failed result — timed out,
// cancelled, rejected, or a -check violation — renders "-"; the failed
// results are returned, one per distinct spec.
func (s *Session) RunExperiment(ctx context.Context, e Experiment, w io.Writer) []runner.Result {
	tables := e.Tables(s)
	var specs []runner.Spec
	index := map[string]int{} // spec key -> position in specs
	for _, t := range tables {
		for _, row := range t.Rows {
			for _, c := range row.Cells {
				for _, sp := range c.Specs {
					k := sp.Key()
					if _, ok := index[k]; !ok {
						index[k] = len(specs)
						specs = append(specs, sp)
					}
				}
			}
		}
	}
	s.obs.experiments.Inc()
	s.obs.cellsTotal.Add(int64(len(specs)))
	s.obs.current.Store(&e)
	defer s.obs.current.Store(nil)
	results := s.r.RunAllProgress(ctx, specs, func(int, runner.Result) {
		s.obs.cellsDone.Add(1)
	})
	for _, t := range tables {
		t.render(w, func(sp runner.Spec) runner.Result { return results[index[sp.Key()]] })
	}
	return slices.DeleteFunc(results, func(res runner.Result) bool { return !res.Failed() })
}

// displayName is the platform's name as the paper's tables print it.
func displayName(platform string) string {
	pl, _ := runner.ParsePlatform(platform, 1) // the name does not depend on p
	return pl.Name
}

// DumpCSV writes every simulated outcome the session has computed as CSV,
// for external plotting. Rows are sorted by (platform, algorithm, procs,
// bodies) so output is stable regardless of execution order.
func (s *Session) DumpCSV(w io.Writer) error {
	t := stats.NewTable(
		"platform", "algorithm", "procs", "bodies", "steps",
		"tree_ns", "partition_ns", "force_ns", "update_ns", "total_ns",
		"tree_share", "locks_total", "barrier_ns_mean", "interactions",
		"page_faults", "diffs", "write_notices", "coherence_misses", "contention_ns",
	)
	type row struct {
		key string
		rec []any
	}
	var rows []row
	ns := func(v float64) string { return fmt.Sprintf("%.0f", v) }
	for _, res := range s.r.Results() {
		if res.Protocol == nil {
			continue // only a completed simulated replay carries protocol counters
		}
		sp, pr, name := res.Spec, res.Protocol, displayName(res.Spec.Platform)
		// Legacy sort key (pre-runner cache key) keeps row order stable
		// for downstream consumers of this file.
		alg, key := sp.Alg.String(), fmt.Sprintf("%s|%v|%d|%d", name, sp.Alg, sp.Procs, sp.Bodies)
		if sp.Sequential {
			alg, key = "SEQUENTIAL", fmt.Sprintf("%s|seq|%d", name, sp.Bodies)
		}
		rows = append(rows, row{key, []any{name, alg, sp.Procs, sp.Bodies, res.StepsDone,
			ns(res.TreeNs), ns(res.PartNs), ns(res.ForceNs), ns(res.UpdateNs), ns(res.TotalNs),
			fmt.Sprintf("%.4f", res.TreeShare), res.LocksTotal, ns(res.BarrierNsMean), res.Interactions,
			pr.PageFaults, pr.Diffs, pr.WriteNotices, pr.CoherenceMiss, ns(pr.ContentionNs)}})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	for _, r := range rows {
		t.Row(r.rec...)
	}
	return t.WriteCSV(w)
}
