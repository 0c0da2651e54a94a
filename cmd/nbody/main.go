// Command nbody runs the native (real goroutines, real locks) Barnes-Hut
// galaxy simulation with a selectable tree-building algorithm and prints
// per-step phase times — the paper's measurement, on your machine.
//
// Usage:
//
//	nbody [-n 16384] [-steps 5] [-p 8] [-alg SPACE] [-model plummer]
//	      [-theta 1.0] [-leafcap 8] [-dt 0.025] [-timeout 0] [-check] [-json]
//	      [-energy] [-quad] [-fmm] [-load f] [-save f]
//	      [-http :9090] [-v info]
//
// With -json the run goes through the shared internal/runner engine and
// emits one Result record (partial, with an error field, on timeout).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"time"

	"partree/internal/core"
	"partree/internal/nbody"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/trace"
)

func main() {
	sf := runner.RegisterSpecFlags(flag.CommandLine, runner.Spec{
		Backend: runner.Native,
		Alg:     core.SPACE,
		Bodies:  16384,
		Procs:   runtime.GOMAXPROCS(0),
		Steps:   5,
		Seed:    1,
	})
	var (
		energy = flag.Bool("energy", false, "report energy drift (O(N²), slow for large N)")
		quad   = flag.Bool("quad", false, "use quadrupole cell expansions (better accuracy per θ)")
		useFMM = flag.Bool("fmm", false, "use the cell-cell fast summation solver instead of Barnes-Hut traversal")
		load   = flag.String("load", "", "restart from a snapshot file instead of generating bodies")
		save   = flag.String("save", "", "write a snapshot file after the last step")
	)
	obsFlags := runner.RegisterObsFlags(flag.CommandLine)
	flag.Parse()
	if _, err := obsFlags.SetupLogging("nbody"); err != nil {
		fmt.Fprintf(os.Stderr, "nbody: %v\n", err)
		os.Exit(2)
	}

	spec, err := sf.Spec()
	if err != nil {
		slog.Error("bad spec flags", "err", err)
		os.Exit(2)
	}
	specCtx := []any{"alg", spec.Alg.String(), "n", spec.Bodies, "p", spec.Procs, "seed", spec.Seed}

	if sf.JSON() {
		for name, set := range map[string]bool{
			"-energy": *energy, "-quad": *quad,
			"-fmm": *useFMM, "-load": *load != "", "-save": *save != "",
		} {
			if set {
				slog.Error("flag is not supported with -json (the spec grid covers the standard path)", "flag", name)
				os.Exit(2)
			}
		}
		r := runner.New(1)
		srv, err := obsFlags.Serve("nbody", r)
		if err != nil {
			slog.Error("starting obs server", "err", err)
			os.Exit(1)
		}
		if srv != nil {
			defer srv.Close()
		}
		res := r.Run(context.Background(), spec)
		if err := runner.WriteJSON(os.Stdout, res); err != nil {
			slog.Error("writing JSON result", "err", err)
			os.Exit(1)
		}
		if res.Failed() {
			os.Exit(1)
		}
		return
	}

	// The interactive path runs the simulation directly (no runner), but
	// the build totals and runtime gauges are process-global, so -http
	// still exposes live per-algorithm build metrics and profiles.
	srv, err := obsFlags.Serve("nbody", nil)
	if err != nil {
		slog.Error("starting obs server", "err", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}

	m, _ := phys.ParseModel(spec.Model)
	opts := nbody.DefaultOptions()
	opts.Model = m
	opts.N = spec.Bodies
	opts.P = spec.Procs
	opts.Alg = spec.Alg
	opts.LeafCap = spec.LeafCap
	opts.Dt = spec.Dt
	opts.Seed = spec.Seed
	opts.Check = spec.Check
	opts.Force.Theta = spec.Theta
	opts.Force.Quadrupole = *quad
	opts.FMM = *useFMM
	var rec *trace.Recorder
	if spec.Trace != "" {
		// Every build resets the recorder, so the file written at exit
		// covers the last completed step's tree build.
		rec = trace.New(spec.Procs)
		rec.SetEnabled(true)
		opts.Trace = rec
	}

	var sim *nbody.Simulation
	if *load != "" {
		bodies, err := phys.LoadSnapshot(*load)
		if err != nil {
			slog.Error("loading snapshot", "path", *load, "err", err)
			os.Exit(1)
		}
		opts.N = bodies.N()
		sim = nbody.NewFromBodies(opts, bodies)
		fmt.Printf("nbody: restarted %d bodies from %s\n", bodies.N(), *load)
	} else {
		sim = nbody.New(opts)
	}
	fmt.Printf("nbody: %d bodies (%s), %d procs, builder %v, θ=%.2f, k=%d\n",
		opts.N, m, opts.P, spec.Alg, spec.Theta, spec.LeafCap)

	var e0 float64
	if *energy {
		_, _, e0 = sim.Energy()
	}
	deadline := time.Time{}
	if spec.Timeout > 0 {
		deadline = time.Now().Add(spec.Timeout)
	}
	for i := 0; i < spec.Steps; i++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			slog.Warn("timeout", append(specCtx, "steps_done", i, "steps", spec.Steps)...)
			break
		}
		st := sim.Step()
		fmt.Printf("%v  [%v]\n", st, st.Build)
		if st.CheckErr != nil {
			slog.Error("verification failed", append(specCtx, "step", i, "err", st.CheckErr)...)
			os.Exit(1)
		}
	}
	if *energy {
		_, _, e1 := sim.Energy()
		fmt.Printf("energy: %.6f -> %.6f (drift %.3f%%)\n", e0, e1, 100*(e1-e0)/e0)
	}
	if rec != nil {
		if err := rec.WriteFile(spec.Trace); err != nil {
			slog.Error("writing trace", append(specCtx, "path", spec.Trace, "err", err)...)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", spec.Trace)
	}
	if *save != "" {
		if err := sim.Bodies.SaveSnapshot(*save); err != nil {
			slog.Error("writing snapshot", "path", *save, "err", err)
			os.Exit(1)
		}
		fmt.Printf("snapshot written to %s\n", *save)
	}
}
