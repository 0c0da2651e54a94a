// Command treebench benchmarks the five native tree builders on this
// machine: wall-clock per build, lock counts, and tree statistics across
// algorithms and processor counts. Each (algorithm, procs) cell is a
// build-only spec executed through the shared internal/runner engine
// (serially, so wall-clock timings stay honest).
//
// Usage:
//
//	treebench [-alg all] [-n 65536] [-p 1,...,NumCPU] [-reps 5]
//	          [-leafcap 8] [-model plummer] [-timeout 0] [-check]
//	          [-trace out.json] [-http :9090] [-v info] [-json]
//
// -model accepts any workload scenario kind with a direct mass model:
// plummer, uniform, twoclusters, disk, hierarchical. -p defaults to the
// processor counts this host can actually run, 1 through NumCPU. With
// -http the run can be watched and profiled live (make obs-smoke).
//
// treebench is an interactive table, not the regression gate: the
// repository's one benchmark — end-to-end and per-layer, sessions and
// the router-fronted cluster included — is benchmark/ (make bench).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/runner"
	"partree/internal/stats"
)

// traceName derives a per-cell trace filename from the -trace argument
// when the sweep has more than one cell (base.json -> base_ORIG_p4.json).
func traceName(base string, alg core.Algorithm, p int) string {
	ext := ".json"
	stem := base
	if i := strings.LastIndex(base, "."); i > 0 {
		stem, ext = base[:i], base[i:]
	}
	return fmt.Sprintf("%s_%s_p%d%s", stem, alg, p, ext)
}

// hostProcs is the default -p grid: 1, 2, …, NumCPU, so every column is
// a processor count this machine can run without oversubscription.
func hostProcs() string {
	ps := make([]string, runtime.NumCPU())
	for i := range ps {
		ps[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(ps, ",")
}

func main() {
	sf := runner.RegisterSpecFlags(flag.CommandLine, runner.Spec{
		Backend:   runner.Native,
		Bodies:    65536,
		Seed:      1,
		BuildOnly: true,
	}, "alg", "p", "steps", "theta", "dt")
	obsFlags := runner.RegisterObsFlags(flag.CommandLine)
	var (
		algFlag = flag.String("alg", "", "restrict the sweep to one tree builder: "+strings.Join(core.AlgorithmNames(), ", ")+" (default all)")
		procs   = flag.String("p", hostProcs(), "comma-separated processor counts")
		reps    = flag.Int("reps", 5, "builds per configuration (best time reported)")
		spatial = flag.Bool("spatial", true, "spatially coherent body partition (like settled costzones)")
	)
	flag.Parse()
	if _, err := obsFlags.SetupLogging("treebench"); err != nil {
		fmt.Fprintf(os.Stderr, "treebench: %v\n", err)
		os.Exit(2)
	}

	base, err := sf.Spec()
	if err != nil {
		slog.Error("bad spec flags", "err", err)
		os.Exit(2)
	}
	base.BuildOnly = true
	base.Steps = *reps
	base.Spatial = *spatial

	// One worker: concurrent wall-clock benchmarks would contend for the
	// same cores and corrupt each other's timings.
	r := runner.New(1)
	srv, err := obsFlags.Serve("treebench", r)
	if err != nil {
		slog.Error("starting obs server", "err", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}

	algs := core.Algorithms()
	if *algFlag != "" {
		a, err := core.ParseAlgorithm(*algFlag)
		if err != nil {
			slog.Error("bad -alg", "err", err)
			os.Exit(2)
		}
		algs = []core.Algorithm{a}
	}

	var ps []int
	for _, f := range strings.Split(*procs, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			slog.Error("bad processor count", "value", f)
			os.Exit(2)
		}
		ps = append(ps, v)
	}

	var specs []runner.Spec
	for _, alg := range algs {
		for _, p := range ps {
			spec := base
			spec.Alg = alg
			spec.Procs = p
			if spec.Trace != "" && (len(algs) > 1 || len(ps) > 1) {
				// One file per sweep cell, so cells don't overwrite each
				// other's traces.
				spec.Trace = traceName(base.Trace, alg, p)
			}
			specs = append(specs, spec)
		}
	}

	// Settle the heap before each cell so a GC cycle provoked by an
	// earlier cell's garbage (or by the engine's retained builder stores)
	// never lands inside a later cell's measured phase — the discipline
	// testing.B applies between benchmarks.
	results := make([]runner.Result, len(specs))
	for i, sp := range specs {
		runtime.GC()
		results[i] = r.Run(context.Background(), sp)
	}

	if sf.JSON() {
		if err := runner.WriteJSON(os.Stdout, results...); err != nil {
			slog.Error("writing JSON results", "err", err)
			os.Exit(1)
		}
		for _, res := range results {
			if res.Failed() {
				os.Exit(1)
			}
		}
		return
	}

	fmt.Printf("treebench: %d bodies (%s), k=%d, best of %d builds\n\n",
		base.Bodies, base.Model, base.LeafCap, base.Steps)

	header := []string{"algorithm"}
	for _, p := range ps {
		header = append(header, fmt.Sprintf("%dp", p))
	}
	header = append(header, fmt.Sprintf("locks(%dp)", ps[len(ps)-1]), "tree")
	t := stats.NewTable(header...)

	i := 0
	for _, alg := range algs {
		row := []any{alg.String()}
		var locks int64
		var treeDesc string
		for pi := range ps {
			res := results[i]
			i++
			if res.Failed() {
				slog.Error("spec failed", "alg", res.Spec.Alg.String(), "n", res.Spec.Bodies,
					"p", res.Spec.Procs, "seed", res.Spec.Seed, "err", res.FailureMessage())
				row = append(row, "-")
				continue
			}
			if pi == len(ps)-1 {
				locks = res.LocksTotal
				treeDesc = fmt.Sprintf("%dc/%dl d%d", res.Cells, res.Leaves, res.MaxDepth)
			}
			row = append(row, time.Duration(res.TreeNs).Round(10*time.Microsecond).String())
		}
		row = append(row, locks, treeDesc)
		t.Row(row...)
	}
	t.Write(os.Stdout)
}
