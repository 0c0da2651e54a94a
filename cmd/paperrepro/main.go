// Command paperrepro regenerates every table and figure from the paper's
// evaluation section on the simulated platforms, writing each experiment's
// output under -out and echoing it to stdout. Each experiment's sweep
// cells run concurrently, -workers at a time; rendering stays
// serial so output is identical to a serial run.
//
// Usage:
//
//	paperrepro [-exp T1,F6,...|all] [-sizes 4096,8192] [-large] [-steps 2]
//	           [-workers 0] [-out results] [-check] [-http :9090] [-v info] [-json]
//
// With -http the whole sweep is observable live: scrape /metrics for
// runner throughput, per-algorithm build counters and harness progress
// (cells done/total, current figure), hit /healthz for liveness, and
// /debug/pprof to profile mid-sweep.
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

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiment IDs (T1,T2,F6..F15,S15) or 'all'")
		sizes    = flag.String("sizes", "", "comma-separated body counts (default 4096,8192,16384)")
		large    = flag.Bool("large", false, "extend the sweep to 32k/64k/128k bodies (slow)")
		steps    = flag.Int("steps", 2, "measured time steps per run")
		seed     = flag.Int64("seed", 1998, "random seed for the Plummer model")
		leafCap  = flag.Int("leafcap", 8, "bodies per leaf (k)")
		workers  = flag.Int("workers", 0, "concurrent sweep cells (0 = GOMAXPROCS)")
		check    = flag.Bool("check", false, "verify every sweep cell's tree against the serial reference")
		traceDir = flag.String("trace", "", "write one Chrome trace_event file per sweep cell into this directory")
		outDir   = flag.String("out", "results", "directory for per-experiment output files")
		csvOut   = flag.Bool("csv", true, "also write every computed outcome to <out>/outcomes.csv")
		jsonOut  = flag.Bool("json", false, "also write every computed Result record to <out>/outcomes.jsonl")
		listOnly = flag.Bool("list", false, "list experiments and exit")
	)
	obsFlags := runner.RegisterObsFlags(flag.CommandLine)
	flag.Parse()
	if _, err := obsFlags.SetupLogging("paperrepro"); err != nil {
		fmt.Fprintf(os.Stderr, "paperrepro: %v\n", err)
		os.Exit(2)
	}

	if *listOnly {
		for _, e := range harness.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.DefaultOptions()
	opts.Large = *large
	opts.MeasuredSteps = *steps
	opts.Seed = *seed
	opts.LeafCap = *leafCap
	opts.Workers = *workers
	opts.Check = *check
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			slog.Error("creating trace dir", "path", *traceDir, "err", err)
			os.Exit(1)
		}
		opts.TraceDir = *traceDir
	}
	if *sizes != "" {
		opts.Sizes = nil
		for _, f := range strings.Split(*sizes, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				slog.Error("bad -sizes entry", "value", f)
				os.Exit(2)
			}
			opts.Sizes = append(opts.Sizes, n)
		}
	}

	var exps []harness.Experiment
	if *expFlag == "all" {
		exps = harness.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, ok := harness.Find(strings.TrimSpace(id))
			if !ok {
				slog.Error("unknown experiment (use -list)", "id", id)
				os.Exit(2)
			}
			exps = append(exps, e)
		}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		slog.Error("creating output dir", "path", *outDir, "err", err)
		os.Exit(1)
	}

	// Ctrl-C / SIGTERM cancels the sweep: in-flight cells cut short, the
	// experiment loop stops, and the partial CSV/JSON dumps still land.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	session := harness.NewSession(opts)
	srv, err := obsFlags.Serve("paperrepro", session.Runner(), session.RegisterObs)
	if err != nil {
		slog.Error("starting obs server", "err", err)
		os.Exit(1)
	}
	if srv != nil {
		defer srv.Close()
	}
	interrupted := false
	for _, e := range exps {
		if ctx.Err() != nil {
			interrupted = true
			break
		}
		start := time.Now()
		path := filepath.Join(*outDir, e.ID+".txt")
		f, err := os.Create(path)
		if err != nil {
			slog.Error("creating experiment output", "experiment", e.ID, "path", path, "err", err)
			os.Exit(1)
		}
		w := io.MultiWriter(os.Stdout, f)
		fmt.Fprintf(w, "=== %s: %s ===\n", e.ID, e.Title)
		fmt.Fprintf(w, "expected shape: %s\n\n", e.Shape)
		session.RunExperiment(ctx, e, w)
		fmt.Fprintf(w, "\n[regenerated in %v]\n\n", time.Since(start).Round(time.Millisecond))
		f.Close()
		if ctx.Err() != nil {
			interrupted = true
			break
		}
	}

	if *csvOut {
		path := filepath.Join(*outDir, "outcomes.csv")
		f, err := os.Create(path)
		if err != nil {
			slog.Error("creating CSV dump", "path", path, "err", err)
			os.Exit(1)
		}
		if err := session.DumpCSV(f); err != nil {
			slog.Error("writing CSV dump", "path", path, "err", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
	if *jsonOut {
		path := filepath.Join(*outDir, "outcomes.jsonl")
		f, err := os.Create(path)
		if err != nil {
			slog.Error("creating JSONL dump", "path", path, "err", err)
			os.Exit(1)
		}
		if err := runner.WriteJSON(f, session.Runner().Results()...); err != nil {
			slog.Error("writing JSONL dump", "path", path, "err", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", path)
	}
	if interrupted {
		slog.Warn("sweep interrupted; partial results written", "dir", *outDir)
		os.Exit(130)
	}
}
