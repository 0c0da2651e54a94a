package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"runtime"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/runner"
)

// nbodyCmd measures what the paper measures, with real goroutines and real
// locks. With -json the run is one spec through the runner (a partial
// record, with an error field, on timeout); the text mode steps the same
// simulation itself to print as it goes, and owns the five extras below.
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
		var (
			energy = fs.Bool("energy", false, "report energy drift (O(N²), slow for large N)")
			load   = fs.String("load", "", "restart from a snapshot file instead of generating bodies")
			save   = fs.String("save", "", "write a snapshot file after the last step")
		)
		return func() int {
			spec, out := c.spec, c.stdout
			if c.json {
				for name, set := range map[string]bool{
					"-energy": *energy,
					"-load":   *load != "", "-save": *save != "",
				} {
					if set {
						slog.Error("flag is not supported with -json (the spec grid covers the standard path)", "flag", name)
						return 2
					}
				}
				return c.emit(c.r.Run(context.Background(), spec))
			}

			var bodies *phys.Bodies
			if *load != "" {
				var err error
				if bodies, err = phys.LoadSnapshot(*load); err != nil {
					slog.Error("loading snapshot", "path", *load, "err", err)
					return 1
				}
				fmt.Fprintf(out, "nbody: restarted %d bodies from %s\n", bodies.N(), *load)
			} else {
				m, _ := phys.ParseModel(spec.Model)
				bodies = phys.Generate(m, spec.Bodies, spec.Seed)
			}
			sim := runner.NewSimulation(spec, bodies, nil)
			fmt.Fprintf(out, "nbody: %d bodies (%s), %d procs, builder %v, θ=%.2f, k=%d\n",
				bodies.N(), sim.Opts.Model, spec.Procs, spec.Alg, spec.Theta, spec.LeafCap)

			var e0 float64
			if *energy {
				_, _, e0 = sim.Energy()
			}
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
			if *energy {
				_, _, e1 := sim.Energy()
				fmt.Fprintf(out, "energy: %.6f -> %.6f (drift %.3f%%)\n", e0, e1, 100*(e1-e0)/e0)
			}
			if *save != "" {
				if err := sim.Bodies.SaveSnapshot(*save); err != nil {
					slog.Error("writing snapshot", "path", *save, "err", err)
					return 1
				}
				fmt.Fprintf(out, "snapshot written to %s\n", *save)
			}
			return 0
		}
	},
}
