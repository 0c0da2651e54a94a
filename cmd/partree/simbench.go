package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"

	"partree/internal/core"
	"partree/internal/runner"
	"partree/internal/stats"
)

// simbenchCmd runs the spec and, unless -noseq, the platform's sequential
// baseline (the speedup's denominator) concurrently.
var simbenchCmd = command{
	name:    "simbench",
	summary: "one configuration on a simulated platform: phase times, speedup, locks, protocol counters",
	spec: runner.Spec{
		Backend:  runner.Simulated,
		Platform: "typhoon-hlrc",
		Alg:      core.SPACE,
		Bodies:   16384,
		Procs:    16,
	},
	omit: []string{"dt", "theta"},
	bind: func(fs *flag.FlagSet, c *command) func() int {
		noSeq := fs.Bool("noseq", false, "skip the sequential baseline (faster)")
		return func() int {
			spec, out := c.spec, c.stdout
			specs := []runner.Spec{spec}
			if !*noSeq {
				seq := spec
				seq.Alg = core.LOCAL
				seq.Procs = 1
				seq.Sequential = true
				specs = append(specs, seq)
			}
			results := c.r.RunAll(context.Background(), specs)
			if c.json {
				return c.emit(results...)
			}
			for i, res := range results {
				if res.Failed() {
					msg := [...]string{"spec failed", "sequential baseline failed"}[i]
					slog.Error(msg, append(specAttrs(spec), "err", res.FailureMessage())...)
					return 1
				}
			}
			o, total := results[0], results[0].TotalNs
			pl, _ := runner.ParsePlatform(spec.Platform, spec.Procs) // validated with the flags

			fmt.Fprintf(out, "%v on %s: %d bodies, %d processors, %d measured steps\n\n",
				spec.Alg, pl.Name, spec.Bodies, spec.Procs, spec.Steps)
			t := stats.NewTable("phase", "simulated time", "share")
			row := func(phase string, ns float64) {
				t.Row(phase, stats.Seconds(ns), fmt.Sprintf("%.1f%%", 100*ns/total))
			}
			row("tree build", o.TreeNs)
			row("partition", o.PartNs)
			row("force calc", o.ForceNs)
			row("update", o.UpdateNs)
			row("total", total)
			t.Write(out)

			if !*noSeq {
				fmt.Fprintf(out, "\nsequential baseline: %s  ->  speedup %.2fx\n",
					stats.Seconds(results[1].TotalNs), results[1].TotalNs/total)
			}

			locks := stats.Summarize(o.LocksPerProc)
			fmt.Fprintf(out, "\ntree-build locks/processor: mean %.0f [%.0f..%.0f], total %d\n",
				locks.Mean, locks.Min, locks.Max, o.LocksTotal)
			fmt.Fprintf(out, "mean barrier time/processor: %s\n", stats.Seconds(o.BarrierNsMean))
			pr := o.Protocol
			fmt.Fprintf(out, "protocol: accesses=%d hits=%d cold=%d coher=%d local=%d remote=%d dirty=%d inval=%d\n",
				pr.Accesses, pr.Hits, pr.ColdMisses, pr.CoherenceMiss, pr.LocalMisses, pr.RemoteMisses, pr.DirtyMisses, pr.Invalidations)
			fmt.Fprintf(out, "          faults=%d twins=%d diffs=%d notices=%d contention=%s\n",
				pr.PageFaults, pr.Twins, pr.Diffs, pr.WriteNotices, stats.Seconds(pr.ContentionNs))
			fmt.Fprintf(out, "interactions: %d\n", o.Interactions)
			return 0
		}
	},
}
