package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/runner"
	"partree/internal/stats"
)

// hostProcs is the default -p grid: 1, 2, …, NumCPU, so every column is
// a processor count this machine can run without oversubscription.
func hostProcs() string {
	ps := make([]string, runtime.NumCPU())
	for i := range ps {
		ps[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(ps, ",")
}

// treebenchCmd runs each (algorithm, procs) cell as a build-only spec, one
// at a time. It is an interactive table, not the regression gate: the
// repository's one benchmark is benchmark/ (make bench).
var treebenchCmd = command{
	name:    "treebench",
	summary: "the five native tree builders across processor counts: best build time, locks, tree shape",
	spec: runner.Spec{
		Backend:   runner.Native,
		Bodies:    65536,
		Steps:     5,
		Seed:      1,
		BuildOnly: true,
	},
	omit:    []string{"alg", "p", "steps", "theta", "dt"},
	workers: 1,
	bind: func(fs *flag.FlagSet, c *command) func() int {
		algFlag := fs.String("alg", "", "restrict the sweep to one tree builder: "+strings.Join(core.AlgorithmNames(), ", ")+" (default all)")
		procs := fs.String("p", hostProcs(), "comma-separated processor counts")
		fs.IntVar(&c.spec.Steps, "reps", c.spec.Steps, "builds per configuration (best time reported)")
		return func() int {
			base, out := c.spec, c.stdout
			algs := core.Algorithms()
			if *algFlag != "" {
				a, err := core.ParseAlgorithm(*algFlag)
				if err != nil {
					slog.Error("bad -alg", "err", err)
					return 2
				}
				algs = []core.Algorithm{a}
			}
			var ps []int
			for _, f := range strings.Split(*procs, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || v < 1 {
					slog.Error("bad processor count", "value", f)
					return 2
				}
				cell := base
				cell.Procs = v
				if err := cell.Validate(); err != nil {
					slog.Error("bad processor count", "value", f, "err", err)
					return 2
				}
				ps = append(ps, v)
			}

			var results []runner.Result
			for _, alg := range algs {
				for _, p := range ps {
					spec := base
					spec.Alg = alg
					spec.Procs = p
					// Settle the heap before each cell so a GC cycle provoked
					// by an earlier cell's garbage (or by the engine's retained
					// builder stores) never lands inside a later cell's measured
					// phase — the discipline testing.B applies between
					// benchmarks.
					runtime.GC()
					results = append(results, c.r.Run(context.Background(), spec))
				}
			}
			if c.json {
				return c.emit(results...)
			}

			fmt.Fprintf(out, "treebench: %d bodies (%s), k=%d, best of %d builds\n\n",
				base.Bodies, base.Model, base.LeafCap, base.Steps)
			header := []string{"algorithm"}
			for _, p := range ps {
				header = append(header, fmt.Sprintf("%dp", p))
			}
			header = append(header, fmt.Sprintf("locks(%dp)", ps[len(ps)-1]), "tree")
			t := stats.NewTable(header...)
			for i, alg := range algs {
				row := []any{alg.String()}
				var locks int64
				var treeDesc string
				for pi, res := range results[i*len(ps) : (i+1)*len(ps)] {
					if res.Failed() {
						slog.Error("spec failed", append(specAttrs(res.Spec), "err", res.FailureMessage())...)
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
			t.Write(out)
			return status(results...)
		}
	},
}
