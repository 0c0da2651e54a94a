package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"partree/internal/harness"
	"partree/internal/runner"
)

// paperreproCmd writes each experiment's output under -out and echoes it
// to stdout. An experiment's sweep cells run concurrently, -workers at a
// time; rendering stays serial, so output is identical to a serial run. A
// cell whose spec failed (error, timeout, a -check violation) prints "-",
// is logged with its grid coordinates, and makes the exit status 1.
// With -http the sweep is observable live: harness progress (cells
// done/total, current figure) beside the runner and build counters.
var paperreproCmd = command{
	name:    "paperrepro",
	summary: "every table and figure of the paper's evaluation section, on the simulated platforms",
	// Of the shared flags the row takes -leafcap; the sweep supplies each
	// cell's platform, algorithm, procs and bodies, and the row words its
	// own -steps, -seed, -check and -json (a file).
	spec: runner.Spec{Backend: runner.Simulated, Steps: 2, Seed: 1998},
	omit: []string{"alg", "platform", "n", "p", "steps", "theta", "dt", "seed", "timeout", "check", "json"},
	bind: func(fs *flag.FlagSet, c *command) func() int {
		var ids []string
		for _, e := range harness.All() {
			ids = append(ids, e.ID)
		}
		var (
			expFlag  = fs.String("exp", "all", "comma-separated experiment IDs ("+strings.Join(ids, ",")+") or 'all'")
			sizes    = fs.String("sizes", "", "comma-separated body counts (default 4096,8192,16384)")
			large    = fs.Bool("large", false, "extend the sweep to 32k/64k/128k bodies (slow)")
			outDir   = fs.String("out", "results", "directory for per-experiment output files")
			csvOut   = fs.Bool("csv", true, "also write every computed outcome to <out>/outcomes.csv")
			listOnly = fs.Bool("list", false, "list experiments and exit")
		)
		fs.IntVar(&c.spec.Steps, "steps", c.spec.Steps, "measured time steps per run")
		fs.Int64Var(&c.spec.Seed, "seed", c.spec.Seed, "random seed for the Plummer model")
		fs.BoolVar(&c.spec.Check, "check", false, "verify every sweep cell's tree against the serial reference")
		fs.IntVar(&c.workers, "workers", 0, "concurrent sweep cells (0 = GOMAXPROCS)")
		fs.BoolVar(&c.json, "json", false, "also write every computed Result record to <out>/outcomes.jsonl")
		return func() int {
			out := c.stdout
			if *listOnly {
				for _, e := range harness.All() {
					fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
				}
				return 0
			}

			opts := harness.Options{
				Large: *large, MeasuredSteps: c.spec.Steps, Seed: c.spec.Seed,
				LeafCap: c.spec.LeafCap, Check: c.spec.Check,
			}
			if *sizes != "" { // else the session's default sweep
				for _, f := range strings.Split(*sizes, ",") {
					n, err := strconv.Atoi(strings.TrimSpace(f))
					if err != nil || n <= 0 {
						slog.Error("bad -sizes entry", "value", f)
						return 2
					}
					opts.Sizes = append(opts.Sizes, n)
				}
			}
			exps := harness.All()
			if *expFlag != "all" {
				exps = nil
				for _, id := range strings.Split(*expFlag, ",") {
					e, ok := harness.Find(strings.TrimSpace(id))
					if !ok {
						slog.Error("unknown experiment (use -list)", "id", id)
						return 2
					}
					exps = append(exps, e)
				}
			}
			if *outDir != "" {
				if err := os.MkdirAll(*outDir, 0o755); err != nil {
					slog.Error("creating directory", "path", *outDir, "err", err)
					return 1
				}
			}

			session := harness.NewSession(c.r, opts)
			if c.reg != nil {
				if err := session.RegisterObs(c.reg); err != nil {
					slog.Error("registering sweep progress", "err", err)
					return 1
				}
			}
			// Ctrl-C / SIGTERM cancels the sweep: in-flight cells cut short,
			// the experiment loop stops, and the partial CSV/JSON dumps
			// still land.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			defer stop()
			failed := 0
			for _, e := range exps {
				if ctx.Err() != nil {
					break
				}
				start := time.Now()
				path := filepath.Join(*outDir, e.ID+".txt")
				f, err := os.Create(path)
				if err != nil {
					slog.Error("creating experiment output", "experiment", e.ID, "path", path, "err", err)
					return 1
				}
				w := io.MultiWriter(out, f)
				fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
				fmt.Fprintf(w, "expected shape: %s\n\n", e.Shape)
				for _, res := range session.RunExperiment(ctx, e, w) {
					failed++
					slog.Error("sweep cell failed", append(specAttrs(res.Spec), "experiment", e.ID, "err", res.FailureMessage())...)
				}
				fmt.Fprintf(w, "\n[regenerated in %v]\n\n", time.Since(start).Round(time.Millisecond))
				f.Close()
			}

			dump := func(name string, write func(io.Writer) error) bool {
				path := filepath.Join(*outDir, name)
				f, err := os.Create(path)
				if err == nil {
					err = write(f)
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					slog.Error("writing dump", "path", path, "err", err)
					return false
				}
				fmt.Fprintf(out, "wrote %s\n", path)
				return true
			}
			if *csvOut && !dump("outcomes.csv", session.DumpCSV) {
				return 1
			}
			if c.json && !dump("outcomes.jsonl", func(w io.Writer) error {
				return runner.WriteJSON(w, c.r.Results()...)
			}) {
				return 1
			}
			if ctx.Err() != nil {
				slog.Warn("sweep interrupted; partial results written", "dir", *outDir)
				return 130
			}
			if failed > 0 {
				slog.Error("reproduction incomplete: failed cells are printed as -", "cells", failed)
				return 1
			}
			return 0
		}
	},
}
