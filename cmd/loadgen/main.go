// Command loadgen drives a live partreed (or partree-router) with a
// model × arrival process workload and writes a replayable report. The
// scenario names one of phys's mass models, which the daemon generates
// for each request (plummer, uniform, twoclusters, disk, hierarchical);
// an arrival process from internal/workload picks when requests fire
// (Poisson, bursty or diurnal), and the daemon's admission control
// decides what survives.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:9732 [-mode session|build]
//	        [-scenario disk] [-arrival bursty:rate=60,on=250ms,off=250ms]
//	        [-horizon 5s] [-speedup 0] [-n 2048] [-procs 2] [-steps 8]
//	        [-seed 1998] [-timeout 60s] [-idle-ms 0] [-linger]
//	        [-report f] [-timings f]
//
// Two outputs, split by determinism:
//
//   - The report (-report, default stdout) is byte-deterministic for a
//     fixed (scenario, arrival, seed, flags) as long as the server
//     rejects nothing: run config, the
//     schedule digest, outcome counts, per-session server-reported
//     step aggregates (including each arrival's request ID, which
//     loadgen mints deterministically via traceparent), and /metrics
//     counter deltas. Two identical runs produce identical bytes — the
//     replay contract. The one exception is the "slow" section: the
//     p99_* request-ID pointers name whichever request *measured*
//     slowest, so determinism comparisons strip lines matching "p99_.
//   - The timings CSV (-timings, optional) holds everything measured:
//     latency percentiles (p50/p95/p99), queue-depth samples. Never
//     byte-stable, by design.
//
// The -timeout bound is mandatory: a load run that can hang is worse
// than no run, so loadgen refuses to start without one and exits 1 if
// the horizon's work does not complete inside it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/workload"
)

type config struct {
	url     string
	mode    string
	model   phys.Model
	arrival workload.Process
	horizon time.Duration
	speedup float64
	n       int
	procs   int
	steps   int
	seed    int64
	timeout time.Duration
	idleMs  int64
	linger  bool
}

func main() {
	runFlags := bindFlags(flag.CommandLine)
	flag.Parse()
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)).With("bin", "loadgen"))
	if err := runFlags(); err != nil {
		slog.Error("loadgen failed", "err", err)
		os.Exit(1)
	}
}

// bindFlags registers loadgen's flags on fs and returns the run they
// configure, to call once fs is parsed.
func bindFlags(fs *flag.FlagSet) func() error {
	var (
		url      = fs.String("url", "", "base URL of a running partreed or partree-router (required)")
		mode     = fs.String("mode", "session", "what each arrival does: session (streaming /v1/session) or build (one-shot /v1/build)")
		scenario = fs.String("scenario", "plummer", "mass model the daemon generates: "+strings.Join(phys.ModelNames(), ", "))
		arrival  = fs.String("arrival", "poisson:rate=20", "arrival process spec, e.g. bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6")
		horizon  = fs.Duration("horizon", 5*time.Second, "virtual-time horizon the arrival schedule covers")
		speedup  = fs.Float64("speedup", 0, "virtual seconds per real second (0 = fire as fast as possible, order preserved)")
		n        = fs.Int("n", 2048, "bodies per request")
		procs    = fs.Int("procs", 2, "processors per request")
		steps    = fs.Int("steps", 8, "timesteps per session")
		seed     = fs.Int64("seed", runner.Spec{}.Normalized().Seed, "base seed; request i uses seed+i")
		timeout  = fs.Duration("timeout", 60*time.Second, "mandatory wall-clock bound for the whole run")
		idleMs   = fs.Int64("idle-ms", 0, "per-session idle eviction timeout in ms (0 = server default)")
		linger   = fs.Bool("linger", false, "sessions hold their lease open after their steps instead of closing (eviction pressure)")
		report   = fs.String("report", "", "deterministic JSON report path (default stdout)")
		timings  = fs.String("timings", "", "measured-latency CSV path (optional)")
	)
	return func() error {
		return run(*url, *mode, *scenario, *arrival, *horizon, *speedup, *n, *procs,
			*steps, *seed, *timeout, *idleMs, *linger, *report, *timings)
	}
}

func run(url, mode, scenario, arrivalSpec string, horizon time.Duration,
	speedup float64, n, procs, steps int, seed int64, timeout time.Duration,
	idleMs int64, linger bool, reportPath, timingsPath string) error {

	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return fmt.Errorf("-url is required (a running partreed or partree-router base URL)")
	}
	if timeout <= 0 {
		return fmt.Errorf("a positive -timeout is mandatory: a load run must not be able to hang")
	}
	if mode != "session" && mode != "build" {
		return fmt.Errorf("-mode must be session or build, got %q", mode)
	}
	model, ok := phys.ParseModel(scenario)
	if !ok {
		return fmt.Errorf("-scenario %q is not a mass model (valid: %s)", scenario, strings.Join(phys.ModelNames(), ", "))
	}
	arrival, err := workload.ParseArrival(arrivalSpec)
	if err != nil {
		return err
	}
	cfg := config{
		url: url, mode: mode, model: model, arrival: arrival,
		horizon: horizon, speedup: speedup, n: n, procs: procs, steps: steps,
		seed: seed, timeout: timeout, idleMs: idleMs, linger: linger,
	}
	schedule := cfg.arrival.Schedule(horizon, seed)
	if len(schedule) == 0 {
		return fmt.Errorf("the arrival schedule is empty (horizon %s at rate %g)", horizon, cfg.arrival.MeanRate())
	}
	slog.Info("run starting", "mode", mode, "scenario", model.String(),
		"arrival", cfg.arrival.Name(), "arrivals", len(schedule), "timeout", timeout)

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	before, err := obs.Scrape(ctx, url)
	if err != nil {
		return fmt.Errorf("scraping %s/metrics before the run: %w", url, err)
	}
	sampler := startQueueSampler(ctx, url)

	// Fire the schedule. Each arrival runs on its own goroutine; pacing
	// happens here on the launch path so ordering is the schedule's.
	results := make([]arrivalResult, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range schedule {
		if d := workload.Pace(at, time.Since(start), speedup); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		if ctx.Err() != nil {
			// Past the timeout: mark the rest unlaunched and stop.
			for j := i; j < len(schedule); j++ {
				results[j] = arrivalResult{ID: j, AtNs: int64(schedule[j]), Outcome: "unlaunched"}
			}
			break
		}
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			if mode == "build" {
				results[i] = runBuild(ctx, cfg, i, at)
			} else {
				results[i] = runSession(ctx, cfg, i, at)
			}
		}(i, at)
	}
	wg.Wait()
	wall := time.Since(start)
	depths := sampler.stop()

	after, err := obs.Scrape(context.Background(), url)
	if err != nil {
		return fmt.Errorf("scraping %s/metrics after the run: %w", url, err)
	}

	rep := buildReport(cfg, schedule, results, before, after)
	if err := writeReport(reportPath, rep); err != nil {
		return err
	}
	if timingsPath != "" {
		if err := writeTimings(timingsPath, results, depths, wall); err != nil {
			return err
		}
	}
	slog.Info("run complete", "ok", rep.Outcomes.OK, "rejected", rep.Outcomes.Rejected,
		"failed", rep.Outcomes.Failed, "wall", wall.Round(time.Millisecond))
	if ctx.Err() != nil {
		return fmt.Errorf("run exceeded the mandatory -timeout %s (%d arrivals unlaunched)",
			timeout, rep.Outcomes.Unlaunched)
	}
	return nil
}

// percentile returns the p-th percentile (nearest-rank) of sorted
// durations.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p/100*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedLatencies(results []arrivalResult) []time.Duration {
	var out []time.Duration
	for _, r := range results {
		if r.Outcome == "ok" {
			out = append(out, r.latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
