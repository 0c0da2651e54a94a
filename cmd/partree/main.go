// Command partree is the repository's one CLI over the one execution
// stack: every subcommand — nbody, treebench, simbench, paperrepro — is a
// row of the commands table, and the driver in this file alone walks
// flags → Spec → logging → engine + runner → -http observability → run →
// text or -json → exit code.
//
// Bare `partree` lists the subcommands; `partree <subcommand> -h` lists a
// subcommand's flags. All four share the spec flags of internal/runner
// (one per runner.Spec field), -json (one runner.Result record per spec
// on stdout instead of text), -http (live /metrics, /healthz and
// /debug/pprof while the run lasts) and -v. Exit status: 0 success, 1 a
// spec failed (error, timeout or a -check violation), 2 bad usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"

	"partree/internal/obs"
	"partree/internal/runner"
)

// command is one row of the subcommand table and, once the driver has
// copied the row and filled in the rest, one invocation of it.
type command struct {
	name    string
	summary string // one line, for -h and the top-level usage
	// spec is the row's default cell of the evaluation grid. The shared
	// spec flags default to it and bind onto it; it is normalized and
	// validated before run.
	spec runner.Spec
	// omit names the shared flags the row does not take or defines
	// itself: runner.BindFlags names, and "json".
	omit []string
	// workers is the engine's width, the specs that may run at once
	// (0 = GOMAXPROCS). Wall-clock subcommands take 1: concurrent native
	// runs would contend for the same cores and corrupt each other's
	// timings.
	workers int
	// bind registers the row's own flags on fs — onto c's fields where
	// one of them is what the flag sets — and returns the run func, which
	// the driver calls once c is complete and which returns the exit
	// status.
	bind func(fs *flag.FlagSet, c *command) (run func() int)

	json   bool
	r      *runner.Runner // the process's one runner, over its one engine
	reg    *obs.Registry  // the -http server's registry; nil with -http off
	stdout io.Writer
}

var commands = []command{nbodyCmd, treebenchCmd, simbenchCmd, paperreproCmd}

// status is the exit status results earn: 1 when any spec failed (error,
// timeout or a -check violation).
func status(results ...runner.Result) int {
	if slices.ContainsFunc(results, runner.Result.Failed) {
		return 1
	}
	return 0
}

// emit writes results as NDJSON, the -json wire, and returns their exit
// status.
func (c *command) emit(results ...runner.Result) int {
	if err := runner.WriteJSON(c.stdout, results...); err != nil {
		slog.Error("writing JSON results", "err", err)
		return 1
	}
	return status(results...)
}

// specAttrs are the grid coordinates a log line about one spec carries.
func specAttrs(s runner.Spec) []any {
	attrs := []any{"alg", s.Alg.String(), "n", s.Bodies, "p", s.Procs, "seed", s.Seed}
	if s.Platform != "" {
		attrs = append(attrs, "platform", s.Platform)
	}
	return attrs
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: partree <subcommand> [flags]   (partree <subcommand> -h lists the flags)")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
}

// serve starts the observability server on addr: runtime gauges and
// everything the runner registers — its own counters, its engine's, and
// the process-wide per-algorithm build totals. The resolved address is
// logged so `-http :0` is usable.
func serve(addr, binary string, r *runner.Runner) (*obs.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	if err := r.RegisterObs(reg); err != nil {
		return nil, nil, err
	}
	srv, err := obs.Serve(addr, binary, reg, nil)
	if err != nil {
		return nil, nil, err
	}
	slog.Info("obs: serving", "addr", srv.Addr(), "url", srv.URL())
	return srv, reg, nil
}

// flags registers all of c's flags on fs — the shared spec flags, -json,
// -http, -v and the row's own — and the -h page that lists them, and
// returns the -http address, the -v level and the row's run func.
func (c *command) flags(fs *flag.FlagSet) (addr, level *string, run func() int) {
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: partree %s [flags]\n%s\n", c.name, c.summary)
		fs.PrintDefaults()
	}
	runner.BindFlags(fs, &c.spec, c.omit...)
	if !slices.Contains(c.omit, "json") {
		fs.BoolVar(&c.json, "json", false, "emit one JSON Result record per spec instead of text")
	}
	addr = fs.String("http", "",
		"serve live /metrics, /healthz and /debug/pprof on this address (e.g. :9090; empty = off)")
	level = fs.String("v", "info", "log level: debug, info, warn, error")
	return addr, level, c.bind(fs, c)
}

// run is the whole program: argv without the program name in, exit
// status out.
func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) == 0 {
		usage(stderr)
		return 2
	}
	i := slices.IndexFunc(commands, func(c command) bool { return c.name == argv[0] })
	if i < 0 {
		fmt.Fprintf(stderr, "partree: unknown subcommand %q\n", argv[0])
		usage(stderr)
		return 2
	}
	cmd := commands[i] // a copy: the flags bind onto it
	cmd.stdout = stdout

	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr, level, runCmd := cmd.flags(fs)
	if err := fs.Parse(argv[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Structured logs go to stderr at the -v level, tagged with the
	// subcommand's name — the same name /healthz reports as "binary".
	if err := obs.SetLogger(stderr, cmd.name, *level); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", cmd.name, err)
		return 2
	}

	cmd.spec = cmd.spec.Normalized()
	if err := cmd.spec.Validate(); err != nil {
		slog.Error("bad spec flags", "err", err)
		return 2
	}
	cmd.r = runner.New(cmd.workers)
	if *addr != "" {
		srv, reg, err := serve(*addr, cmd.name, cmd.r)
		if err != nil {
			slog.Error("starting obs server", "err", err)
			return 1
		}
		defer srv.Close()
		cmd.reg = reg
	}
	return runCmd()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
