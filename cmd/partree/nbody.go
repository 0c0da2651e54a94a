package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"partree/internal/core"
	"partree/internal/runner"
)

// nbodyCmd measures what the paper measures, with real goroutines and real
// locks. With -json the run is one spec through the runner (a partial
// record, with an error field, on timeout); the text mode steps the same
// simulation itself to print as it goes.
var nbodyCmd = command{
	name:    "nbody",
	summary: "native Barnes-Hut simulation: per-step phase times on this machine",
	spec: runner.Spec{
		Backend: runner.Native,
		Alg:     core.SPACE,
		Bodies:  16384,
		Procs:   runtime.GOMAXPROCS(0),
		Steps:   5,
		Seed:    1,
	},
	workers: 1,
	bind: func(fs *flag.FlagSet, c *command) func() int {
		return func() int {
			spec, out := c.spec, c.stdout
			if c.json {
				return c.emit(c.r.Run(context.Background(), spec))
			}

			sim := runner.NewSimulation(spec, nil, nil)
			fmt.Fprintf(out, "nbody: %d bodies (%s), %d procs, builder %v, θ=%.2f, k=%d\n",
				sim.Bodies.N(), sim.Opts.Model, spec.Procs, spec.Alg, spec.Theta, spec.LeafCap)

			var deadline time.Time
			if spec.Timeout > 0 {
				deadline = time.Now().Add(spec.Timeout)
			}
			for i := 0; i < spec.Steps; i++ {
				if !deadline.IsZero() && time.Now().After(deadline) {
					slog.Warn("timeout", append(specAttrs(spec), "steps_done", i, "steps", spec.Steps)...)
					break
				}
				st := sim.Step()
				fmt.Fprintf(out, "%v  [%v]\n", st, st.Build)
				if st.CheckErr != nil {
					slog.Error("verification failed", append(specAttrs(spec), "step", i, "err", st.CheckErr)...)
					return 1
				}
			}
			return 0
		}
	},
}
