package harness

import (
	"bytes"
	"context"
	"io"
	"regexp"
	"strings"
	"testing"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/mp"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/runner"
)

func tinySession() *Session {
	return NewSession(runner.New(0), Options{Sizes: []int{1024, 2048}, MeasuredSteps: 1})
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	s := tinySession()
	for _, e := range All() {
		var buf bytes.Buffer
		if failed := s.RunExperiment(context.Background(), e, &buf); len(failed) != 0 {
			t.Fatalf("%s: %d cells failed, first: %s", e.ID, len(failed), failed[0].FailureMessage())
		}
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
		algs := core.Algorithms()
		switch e.ID {
		case "T1", "X3":
			algs = nil // per-platform, not per-algorithm
		case "X2":
			algs = []core.Algorithm{core.LOCAL, core.PARTREE, core.SPACE}
		}
		for _, alg := range algs {
			if !strings.Contains(out, alg.String()) {
				t.Fatalf("%s output missing algorithm %v:\n%s", e.ID, alg, out)
			}
		}
	}
}

func TestSessionCSVDump(t *testing.T) {
	s := tinySession()
	s.Outcome("challenge", core.SPACE, 2, 1024)
	s.Seq("challenge", 1024)
	var buf bytes.Buffer
	if err := s.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "tree_share") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(buf.String(), "SEQUENTIAL") {
		t.Fatal("sequential row not tagged")
	}
}

func TestFindExperiments(t *testing.T) {
	for _, id := range []string{"T1", "T2", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "S15", "X1", "X2", "X3"} {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if _, ok := Find("F99"); ok {
		t.Fatal("found bogus experiment")
	}
}

func TestSessionMemoizes(t *testing.T) {
	s := tinySession()
	a := s.Outcome("challenge", core.SPACE, 4, 1024)
	b := s.Outcome("challenge", core.SPACE, 4, 1024)
	if a.TotalNs != b.TotalNs {
		t.Fatal("memoized outcomes differ")
	}
	if len(s.r.Results()) != 1 {
		t.Fatalf("want exactly one cached result, got %d", len(s.r.Results()))
	}
}

func TestHeadlineShapesHold(t *testing.T) {
	// The paper's core quantitative claims, checked at small scale.
	s := NewSession(runner.New(0), Options{Sizes: []int{8192}, MeasuredSteps: 1})
	n := 8192

	speedup := func(pl string, alg core.Algorithm, p, n int) float64 {
		return s.Seq(pl, n).TotalNs / s.Outcome(pl, alg, p, n).TotalNs
	}

	// HLRC: SPACE performs well, ORIG near/below 1, ordering holds.
	ty := "typhoon-hlrc"
	spSpace := speedup(ty, core.SPACE, 16, n)
	spPartree := speedup(ty, core.PARTREE, 16, n)
	spLocal := speedup(ty, core.LOCAL, 16, n)
	spOrig := speedup(ty, core.ORIG, 16, n)
	if !(spSpace > spPartree && spPartree > spLocal && spLocal > spOrig) {
		t.Fatalf("HLRC ordering broken: SPACE=%.2f PARTREE=%.2f LOCAL=%.2f ORIG=%.2f",
			spSpace, spPartree, spLocal, spOrig)
	}
	if spOrig > 1.8 {
		t.Fatalf("ORIG on HLRC should be near slowdown, got %.2f", spOrig)
	}
	if spSpace < 4 {
		t.Fatalf("SPACE on HLRC should deliver a real speedup, got %.2f", spSpace)
	}

	// Challenge: everything speeds up decently.
	ch := "challenge"
	for _, alg := range core.Algorithms() {
		if sp := speedup(ch, alg, 16, n); sp < 5 {
			t.Fatalf("%v on Challenge speedup %.2f too low", alg, sp)
		}
	}

	// Figure 15 ordering: locks fall ORIG >= LOCAL > UPDATE > PARTREE > SPACE=0,
	// and HLRC requires more locks than Origin for the same algorithm.
	or := "origin"
	locksOr := map[core.Algorithm]int64{}
	locksTy := map[core.Algorithm]int64{}
	for _, alg := range core.Algorithms() {
		locksOr[alg] = s.Outcome(or, alg, 16, n).LocksTotal
		locksTy[alg] = s.Outcome(ty, alg, 16, n).LocksTotal
	}
	if !(locksOr[core.ORIG] >= locksOr[core.LOCAL] &&
		locksOr[core.LOCAL] > locksOr[core.UPDATE] &&
		locksOr[core.UPDATE] > locksOr[core.PARTREE] &&
		locksOr[core.PARTREE] > 0 && locksOr[core.SPACE] == 0) {
		t.Fatalf("Origin lock ordering broken: %v", locksOr)
	}
	for _, alg := range []core.Algorithm{core.ORIG, core.LOCAL, core.UPDATE, core.PARTREE} {
		if locksTy[alg] <= locksOr[alg] {
			t.Fatalf("%v: HLRC locks %d not above Origin locks %d", alg, locksTy[alg], locksOr[alg])
		}
	}
}

// started reads the runner's executions-begun counter off its /metrics page.
func started(t *testing.T, r *runner.Runner) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	if err := r.RegisterObs(reg); err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	vals, err := obs.ParseText(&page)
	if err != nil {
		t.Fatal(err)
	}
	return vals["partree_runner_specs_started_total"]
}

// TestOnePassOneResult: RunExperiment declares an experiment's tables once,
// executes each distinct spec once, and formats each cell once.
func TestOnePassOneResult(t *testing.T) {
	r := runner.New(0)
	s := NewSession(r, Options{Sizes: []int{512}, MeasuredSteps: 1})
	var declared, formatted int
	ch := "challenge"
	e := Experiment{ID: "T", Tables: func(s *Session) []Table {
		declared++
		count := func(c Cell) Cell {
			return Cell{c.Specs, func(rs []runner.Result) any { formatted++; return c.Value(rs) }}
		}
		// Four cells over three distinct specs: both speedups read the
		// same baseline, and the last cell repeats the first.
		return []Table{{Header: []string{"algorithm", "a", "b"}, Rows: []Row{
			{"x", []Cell{count(s.speedup(ch, core.SPACE, 2, 512)), count(s.speedup(ch, core.LOCAL, 2, 512))}},
			{"y", []Cell{count(s.share(ch, core.LOCAL, 1, 512)), count(s.speedup(ch, core.SPACE, 2, 512))}},
		}}}
	}}
	var buf bytes.Buffer
	if failed := s.RunExperiment(context.Background(), e, &buf); len(failed) != 0 {
		t.Fatalf("%d cells failed: %s", len(failed), failed[0].FailureMessage())
	}
	if declared != 1 || formatted != 4 {
		t.Errorf("declared %d times, formatted %d cells; want 1 and 4", declared, formatted)
	}
	if got := started(t, r); got != 3 {
		t.Errorf("runner started %v executions, want the 3 distinct specs", got)
	}
	if got := s.obs.cellsTotal.Load(); got != 3 || s.obs.cellsDone.Load() != 3 {
		t.Errorf("progress: %d cells enqueued, %d done; want 3 and 3", got, s.obs.cellsDone.Load())
	}
	// And for real figures: what ran is exactly what the cells declare.
	for _, id := range []string{"F6", "F15"} {
		e, _ := Find(id)
		r := runner.New(0)
		s := NewSession(r, Options{Sizes: []int{512}, MeasuredSteps: 1})
		distinct := map[string]bool{}
		for _, tb := range e.Tables(s) {
			for _, row := range tb.Rows {
				for _, c := range row.Cells {
					for _, sp := range c.Specs {
						distinct[sp.Key()] = true
					}
				}
			}
		}
		s.RunExperiment(context.Background(), e, io.Discard)
		if got := started(t, r); got != float64(len(distinct)) {
			t.Errorf("%s: runner started %v executions, want its %d distinct specs", id, got, len(distinct))
		}
	}
}

// TestX3PricesOneMeasurement: X3's five message-passing cells price one
// native measurement — a settle step and the measured step, taken when the
// first row renders, at the session's leaf capacity. Declaring the table
// takes none.
func TestX3PricesOneMeasurement(t *testing.T) {
	s := NewSession(runner.New(0), Options{Sizes: []int{1024}, MeasuredSteps: 1, LeafCap: 4})
	steps := 0
	s.mpStep = func(b *phys.Bodies, o mp.Options) mp.StepStats {
		steps++
		if o.P != 16 || o.LeafCap != 4 {
			t.Errorf("mp.Step options %+v, want 16 ranks at the session's leaf capacity 4", o)
		}
		return mp.Step(b, o)
	}
	x3, _ := Find("X3")
	if x3.Tables(s); steps != 0 {
		t.Errorf("declaring X3 took %d message-passing steps, want none", steps)
	}
	var buf bytes.Buffer
	if failed := s.RunExperiment(context.Background(), x3, &buf); len(failed) != 0 {
		t.Fatalf("%d cells failed, first: %s", len(failed), failed[0].FailureMessage())
	}
	if steps != 2 {
		t.Errorf("rendering X3 took %d message-passing steps, want one measurement (settle + measured = 2)", steps)
	}
	if rows := regexp.MustCompile(`(?m)^\S+ +[0-9.]+x +[0-9.]+x +[0-9.]+x$`).FindAllString(buf.String(), -1); len(rows) != 5 {
		t.Errorf("%d platform rows carry a priced estimate, want 5:\n%s", len(rows), buf.String())
	}
}

// TestFailedCellsAreAVerdict: a cell whose spec failed prints "-" — never a
// NaN computed from a zero result — and RunExperiment returns every failed
// spec, whether the sweep was cancelled or the engine refused the work.
func TestFailedCellsAreAVerdict(t *testing.T) {
	f6, _ := Find("F6")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	draining := engine.New(engine.Options{MaxActive: 2})
	if err := draining.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		ctx context.Context
		r   *runner.Runner
	}{
		"cancelled context": {cancelled, runner.New(0)},
		"draining engine":   {context.Background(), runner.NewWithConfig(runner.Config{Engine: draining})},
	} {
		s := NewSession(c.r, Options{Sizes: []int{1024}, MeasuredSteps: 1})
		var buf bytes.Buffer
		failed := s.RunExperiment(c.ctx, f6, &buf)
		// Figure 6 at one size: five algorithms and the shared baseline.
		if len(failed) != 6 {
			t.Errorf("%s: %d failed results, want all 6 cells", name, len(failed))
		}
		for _, res := range failed {
			if res.FailureMessage() == "" || res.Spec.Bodies != 1024 {
				t.Errorf("%s: failed result lacks its message or spec: %+v", name, res)
			}
		}
		out := buf.String()
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
			t.Errorf("%s: a failed cell printed a number:\n%s", name, out)
		}
		if got := strings.Count(out, "  -\n"); got != 5 {
			t.Errorf("%s: %d cells print \"-\", want 5:\n%s", name, got, out)
		}
	}
	// The bar series of S15 has no grid to put a "-" in; the bar does.
	s15, _ := Find("S15")
	var buf bytes.Buffer
	NewSession(runner.New(0), Options{Sizes: []int{1024}}).RunExperiment(cancelled, s15, &buf)
	if out := buf.String(); strings.Contains(out, "NaN") || strings.Count(out, "  -\n") != 5 {
		t.Errorf("S15 with every cell failed:\n%s", out)
	}
}

// TestSizeLabels: sizes print in units of 1024 only where that is exact.
func TestSizeLabels(t *testing.T) {
	for n, want := range map[int]string{512: "512", 1024: "1k", 1536: "1536", 16384: "16k", 131072: "128k"} {
		if got := sizeLabel(n); got != want {
			t.Errorf("sizeLabel(%d) = %q, want %q", n, got, want)
		}
	}
	t1, _ := Find("T1")
	tables := t1.Tables(NewSession(runner.New(0), Options{Sizes: []int{512, 2048}}))
	if got := strings.Join(tables[0].Header, " "); got != "platform 512 2k" {
		t.Errorf("Table 1 header = %q", got)
	}
}
