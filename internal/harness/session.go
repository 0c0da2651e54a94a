// Package harness defines the paper's experiments — every table and figure
// in the evaluation section — as runnable units over the platform
// simulator, plus the native-execution extras. `partree paperrepro`
// drives it.
package harness

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"partree/internal/core"
	"partree/internal/memsim"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/simalg"
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
	// TraceDir, when non-empty, makes every sweep cell write a Chrome
	// trace_event file into this directory (one per cell, named after the
	// cell). Traces are written after each cell's wall clock stops, so a
	// traced sweep reports the same simulated times as an untraced one.
	TraceDir string
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
func (o Options) MaxSize() int {
	max := 0
	for _, n := range o.EffectiveSizes() {
		if n > max {
			max = n
		}
	}
	return max
}

// Session executes experiments over a shared runner.Runner, whose
// concurrency-safe cache lets experiments share sweeps (the speedup
// figures and the phase-share figures reuse the same runs) and lets
// whole figures compute their cells concurrently via RunExperiment.
type Session struct {
	Opts Options
	r    *runner.Runner

	mu         sync.Mutex
	collecting bool
	pending    map[string]runner.Spec
	// ctx is the active sweep's context while RunExperiment is rendering;
	// outcome() runs cells under it so cancellation (Ctrl-C in
	// `partree paperrepro`) cuts a sweep short instead of running it to the
	// end.
	ctx context.Context

	// obs tracks live sweep progress (cells done/total, current figure);
	// see obs.go. Always maintained, exposed only under -http.
	obs sessionObs
}

// NewSession creates a session executing its sweep cells through r,
// whose engine bounds how many run at once. Zero Options fields select
// the quick configuration.
func NewSession(r *runner.Runner, opts Options) *Session {
	if opts.LeafCap == 0 {
		opts.LeafCap = 8
	}
	if opts.MeasuredSteps == 0 {
		opts.MeasuredSteps = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1998
	}
	if len(opts.Sizes) == 0 {
		opts.Sizes = []int{4096, 8192, 16384}
	}
	s := &Session{Opts: opts, r: r}
	s.obs.experiments = obs.NewCounter("partree_harness_experiments_started_total",
		"Experiments (tables/figures) started this session.")
	return s
}

// Bodies returns the memoized Plummer system of size n.
func (s *Session) Bodies(n int) *phys.Bodies {
	return s.r.Bodies(phys.ModelPlummer, n, s.Opts.Seed)
}

// spec maps one sweep cell onto the runner's typed Spec.
func (s *Session) spec(pl memsim.Platform, alg core.Algorithm, p, n int, seq bool) runner.Spec {
	name, ok := runner.CanonicalPlatform(pl.Name)
	if !ok {
		name = pl.Name
	}
	sp := runner.Spec{
		Backend:    runner.Simulated,
		Platform:   name,
		Alg:        alg,
		Procs:      p,
		Bodies:     n,
		LeafCap:    s.Opts.LeafCap,
		Steps:      s.Opts.MeasuredSteps,
		Seed:       s.Opts.Seed,
		Sequential: seq,
		Check:      s.Opts.Check,
	}
	if s.Opts.TraceDir != "" {
		sp.Trace = filepath.Join(s.Opts.TraceDir, TraceFileName(sp))
	}
	return sp
}

// TraceFileName is the canonical per-cell trace filename a session uses
// under Options.TraceDir: platform, algorithm (SEQ for the sequential
// baseline), processors, bodies.
func TraceFileName(sp runner.Spec) string {
	alg := sp.Alg.String()
	if sp.Sequential {
		alg = "SEQ"
	}
	return fmt.Sprintf("%s_%s_p%d_n%d.json", sp.Platform, alg, sp.Procs, sp.Bodies)
}

// outcome runs (or recalls) one cell. During an experiment's collect
// pass it only records the cell and returns a placeholder, so the real
// runs can then be fanned out concurrently.
func (s *Session) outcome(spec runner.Spec) simalg.Outcome {
	s.mu.Lock()
	if s.collecting {
		s.pending[spec.Key()] = spec
		s.mu.Unlock()
		return simalg.Outcome{
			Alg: spec.Alg, Platform: spec.Platform, P: spec.Procs, N: spec.Bodies,
			LocksPerProc:     make([]int64, spec.Procs),
			BarrierNsPerProc: make([]float64, spec.Procs),
		}
	}
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.mu.Unlock()
	o, _ := s.r.Run(ctx, spec).Outcome()
	return o
}

// Outcome runs (or recalls) algorithm alg on the platform with p simulated
// processors and n bodies.
func (s *Session) Outcome(pl memsim.Platform, alg core.Algorithm, p, n int) simalg.Outcome {
	return s.outcome(s.spec(pl, alg, p, n, false))
}

// Seq returns the best-sequential baseline on the platform at size n: one
// processor, no locking anywhere (the paper's speedup denominator).
func (s *Session) Seq(pl memsim.Platform, n int) simalg.Outcome {
	return s.outcome(s.spec(pl, core.LOCAL, 1, n, true))
}

// Speedup is whole-application speedup over the platform's sequential run.
func (s *Session) Speedup(pl memsim.Platform, alg core.Algorithm, p, n int) float64 {
	return s.Seq(pl, n).TotalNs() / s.Outcome(pl, alg, p, n).TotalNs()
}

// TreeSpeedup is the tree-building phase's speedup alone (paper Figures 9
// and 14).
func (s *Session) TreeSpeedup(pl memsim.Platform, alg core.Algorithm, p, n int) float64 {
	return s.Seq(pl, n).TreeNs / s.Outcome(pl, alg, p, n).TreeNs
}

// RunExperiment renders one experiment, computing its sweep cells
// concurrently: a first silent pass records which cells the experiment
// reads, the runner fans them out across its engine's slots, and a second
// pass renders from the now-warm cache. Output is identical to a serial
// run because rendering is serial and the cache is keyed by spec.
func (s *Session) RunExperiment(ctx context.Context, e Experiment, w io.Writer) {
	s.mu.Lock()
	s.collecting = true
	s.pending = map[string]runner.Spec{}
	s.ctx = ctx
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.ctx = nil
		s.mu.Unlock()
	}()
	func() {
		defer func() {
			s.mu.Lock()
			s.collecting = false
			s.mu.Unlock()
		}()
		e.Run(s, io.Discard)
	}()
	s.mu.Lock()
	specs := make([]runner.Spec, 0, len(s.pending))
	keys := make([]string, 0, len(s.pending))
	for k := range s.pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		specs = append(specs, s.pending[k])
	}
	s.pending = nil
	s.mu.Unlock()
	s.obs.experiments.Inc()
	s.obs.cellsTotal.Add(int64(len(specs)))
	s.obs.setCurrent(e.ID, e.Title)
	defer s.obs.setCurrent("", "")
	s.r.RunAllProgress(ctx, specs, func(int, runner.Result) {
		s.obs.cellsDone.Add(1)
	})
	e.Run(s, w)
}

// DumpCSV writes every simulated outcome the session has computed as CSV,
// for external plotting. Rows are sorted by (platform, algorithm, procs,
// bodies) so output is stable regardless of execution order.
func (s *Session) DumpCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"platform", "algorithm", "procs", "bodies", "steps",
		"tree_ns", "partition_ns", "force_ns", "update_ns", "total_ns",
		"tree_share", "locks_total", "barrier_ns_mean", "interactions",
		"page_faults", "diffs", "write_notices", "coherence_misses", "contention_ns",
	}); err != nil {
		return err
	}
	type row struct {
		key string
		o   simalg.Outcome
		seq bool
	}
	var rows []row
	for _, res := range s.r.Results() {
		o, ok := res.Outcome()
		if !ok {
			continue
		}
		// Legacy sort key (pre-runner cache key) keeps row order stable
		// for downstream consumers of this file.
		key := fmt.Sprintf("%s|%v|%d|%d", o.Platform, o.Alg, o.P, o.N)
		if res.Spec.Sequential {
			key = fmt.Sprintf("%s|seq|%d", o.Platform, o.N)
		}
		rows = append(rows, row{key, o, res.Spec.Sequential})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	for _, r := range rows {
		o := r.o
		alg := o.Alg.String()
		if r.seq {
			alg = "SEQUENTIAL"
		}
		rec := []string{
			o.Platform, alg,
			strconv.Itoa(o.P), strconv.Itoa(o.N), strconv.Itoa(o.Steps),
			fmt.Sprintf("%.0f", o.TreeNs), fmt.Sprintf("%.0f", o.PartNs),
			fmt.Sprintf("%.0f", o.ForceNs), fmt.Sprintf("%.0f", o.UpdateNs),
			fmt.Sprintf("%.0f", o.TotalNs()),
			fmt.Sprintf("%.4f", o.TreeShare()),
			strconv.FormatInt(o.TotalLocks(), 10),
			fmt.Sprintf("%.0f", o.MeanBarrierNs()),
			strconv.FormatInt(o.Interactions, 10),
			strconv.FormatInt(o.Protocol.PageFaults, 10),
			strconv.FormatInt(o.Protocol.Diffs, 10),
			strconv.FormatInt(o.Protocol.WriteNotices, 10),
			strconv.FormatInt(o.Protocol.CoherenceMiss, 10),
			fmt.Sprintf("%.0f", o.Protocol.ContentionNs),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	return nil
}
