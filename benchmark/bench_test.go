package main

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"

	"partree/internal/cluster"
	"partree/internal/octree"
)

// The smoke test runs every workload at toy scale (n <= 2000, a fraction
// of a second measured, servers included) and checks what the benchmark
// promises about its own output. It asserts no wall-clock value.

var testBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "partree-bench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if _, err := compileServers(".", dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	testBin = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func testCatalog(t *testing.T) *catalog {
	t.Helper()
	cat, err := loadCatalog(".")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestCatalogWithinLimits(t *testing.T) {
	cat := testCatalog(t)
	if n := len(cat.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(cat.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(cat.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if len(cat.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(cat.Workloads), len(workloads))
	}
	for i, w := range cat.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef{}, cat.EndToEnd...), cat.PerLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better=%q", d.Name, d.Better)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range cat.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestWorkloadsEmitEveryMetric runs both passes of every workload and
// checks that each emits exactly the metrics BENCHMARK.json lists for
// it, finite, and that no operation failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	cat := testCatalog(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				res, err := runWorkload(runConfig{w: w.toy(), seed: 5, seconds: 0.2, traced: traced,
					binDir: testBin, outDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				res.metrics.set("bench.compile_s", 1)
				for _, f := range res.failures {
					t.Errorf("failed operation: %s", f)
				}
				line, err := res.line(cat.defs(traced), traced)
				if err != nil {
					t.Fatal(err)
				}
				if !line.Correct || line.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
				}
				for _, d := range cat.defs(traced) {
					v, ok := line.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("metric %s: emitted=%v value=%v unit=%q, want unit %q", d.Name, ok, v.Value, v.Unit, d.Unit)
					}
				}
				if len(line.Metrics) != len(cat.defs(traced)) {
					t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(line.Metrics), len(cat.defs(traced)))
				}
			})
		}
	}
}

// TestYardstickRepeats checks that the yardstick does the same work on
// every run: the timings of a run are read against it.
func TestYardstickRepeats(t *testing.T) {
	y := newYardstick()
	used := y.used
	y.burst(0)
	if y.used != used || used <= yardPoints || len(y.runs) != yardBurst {
		t.Fatalf("yardstick built %d nodes, then %d, in %d timed runs", used, y.used, len(y.runs))
	}
}

// TestCheckerRejectsTamperedTree moves a body into the wrong leaf of a
// verified tree; the closing verification must notice.
func TestCheckerRejectsTamperedTree(t *testing.T) {
	s := newTreeSection(workloads[1].toy(), 3, 2, false, nil)
	s.warmUp()
	if s.verifyAll(); len(s.failed) != 0 {
		t.Fatalf("pristine trees failed verification: %v", s.failed)
	}
	tree := s.order[0].tree
	leaves := octree.LiveLeaves(tree)
	a, b := tree.Store.Leaf(leaves[0]), tree.Store.Leaf(leaves[len(leaves)-1])
	a.Bodies[0], b.Bodies[0] = b.Bodies[0], a.Bodies[0]
	if s.verifyAll(); len(s.failed) == 0 {
		t.Fatal("verification accepted a tree with two bodies swapped between distant leaves")
	}
}

// TestCheckerRejectsShortMerge feeds the cluster judge merged answers
// that lost a body or a shard.
func TestCheckerRejectsShortMerge(t *testing.T) {
	good := cluster.ClusterResult{Shards: []cluster.ShardBuildResult{
		{Shard: "s0", N: 600, BodiesBuilt: 600}, {Shard: "s1", N: 400, BodiesBuilt: 400}}}
	if msg := judgeCluster(200, nil, good, 1000); msg != "" {
		t.Fatalf("good merge rejected: %s", msg)
	}
	short := good
	short.Shards = []cluster.ShardBuildResult{{Shard: "s0", N: 600, BodiesBuilt: 600}, {Shard: "s1", N: 400, BodiesBuilt: 399}}
	if judgeCluster(200, nil, short, 1000) == "" {
		t.Error("a merge that built 999 of 1000 bodies was accepted")
	}
	one := good
	one.Shards = good.Shards[:1]
	if judgeCluster(200, nil, one, 600) == "" {
		t.Error("a merge with one shard missing was accepted")
	}
	inband := good
	inband.CheckFailure = "cluster conservation: shards own 999 bodies"
	if judgeCluster(200, nil, inband, 1000) == "" {
		t.Error("an in-band check failure was accepted")
	}
}
