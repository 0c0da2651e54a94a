// Command benchmark is the measure of this repository: it drives the
// three surfaces a user sees — a library tree build (internal/core), an
// application time step (internal/nbody) and a served request
// (cmd/partreed, cmd/partree-router) — on six workloads, checks that
// every output is correct, and prints each metric of BENCHMARK.json by
// name with its unit. See README.md beside this file.
//
//	bash benchmark/run.sh -seed 1                      every workload, end-to-end metrics
//	bash benchmark/run.sh -seed 1 -trace 1             ... and the traced pass with per-layer metrics
//	bash benchmark/run.sh -repeat 5 -json out.json     five suites of the same seed, spreads against the bounds
//	bash benchmark/run.sh --workload tree-large --seed 3 --seconds 14 --trace 0     one run, as the driver calls it
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runDeadline bounds one workload run, set-up and servers included.
const runDeadline = 170 * time.Second

// cycles is how many times a run alternates between its three sections.
const cycles = 16

// setUps is how many times the untraced pass sets up; setup_s is the
// median, so one slow process start does not decide the metric.
const setUps = 3

// metricDef is one metric of BENCHMARK.json. The file is the catalogue:
// this program computes values by name and takes units and bounds from it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type catalog struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadCatalog(srcDir string) (*catalog, error) {
	b, err := os.ReadFile(filepath.Join(srcDir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// defs returns the metrics a pass must emit.
func (c *catalog) defs(traced bool) []metricDef {
	if traced {
		return c.PerLayer
	}
	return c.EndToEnd
}

// hostStamp says where and on what a result was taken.
type hostStamp struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Pmax       int    `json:"pmax"`
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"`
}

func stampHost(srcDir string, seed int64) hostStamp {
	h := hostStamp{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Pmax: pmax(), Seed: seed, Commit: "unknown"}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = srcDir
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// pmax is the processor count the parallel configurations run at: what
// the host can really run, capped at 4.
func pmax() int { return min(runtime.NumCPU(), 4) }

// valueOut is one metric in the contract's result line.
type valueOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]valueOut `json:"metrics"`
}

type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	binDir  string // partreed and partree-router
	outDir  string // scratch directories and trace files
}

type runResult struct {
	attempted  int
	failures   []string
	metrics    metrics
	identities []string
	tracer     *tracer
}

// sections is the state one set-up produces.
type sections struct {
	tree  *treeSection
	app   *appSection
	serve *serveSection
	dir   string
}

func (st *sections) close() float64 {
	rss := st.serve.close()
	os.RemoveAll(st.dir)
	return rss
}

// setUp generates the bodies, creates and warms the builders and
// simulations, starts the servers and opens the sessions: what a user
// pays before the first useful result.
func setUp(ctx context.Context, cfg runConfig, tr *tracer) (*sections, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	k := tr.newTrack("in-process")
	st := &sections{dir: dir}
	sp := k.begin("set-up tree")
	st.tree = newTreeSection(cfg.w, cfg.seed*1_000_003+11, pmax(), cfg.traced, k)
	st.tree.warmUp()
	k.end(sp)
	sp = k.begin("set-up app")
	st.app = newAppSection(cfg.w, cfg.seed*1_000_003+13, pmax(), cfg.traced, k)
	st.app.warmUp()
	k.end(sp)
	st.serve, err = newServeSection(ctx, cfg.w, cfg.seed, runtime.NumCPU(), cfg.traced, dir, cfg.binDir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return st, nil
}

// runWorkload is one run: set-up, the three measured sections, the
// correctness checks, the metrics.
func runWorkload(cfg runConfig) (*runResult, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res := &runResult{metrics: metrics{}}
	n := setUps
	if cfg.traced {
		res.tracer = newTracer()
		n = 1
	}
	var st *sections
	var setupS []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		s, err := setUp(ctx, cfg, res.tracer)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if st = s; i < n-1 {
			st.close()
		}
	}
	open := st // closed on every path out; nil once the run has closed it itself
	defer func() {
		if open != nil {
			open.close()
		}
	}()
	start := time.Now()

	// The warm-up rounds' trees are the "first round" check; it runs
	// here, after the set-up clock has stopped.
	res.attempted += st.tree.verifyAll()

	// The measured seconds are dealt out in cycles: a slice of tree
	// rounds, a slice of application steps, a slice of traffic, and
	// again, with a burst of the yardstick between slices. Interference
	// on a shared host comes in regimes that last seconds to minutes;
	// dealt this way every section samples the whole run, and every
	// sample is read against the yardstick of its own cycle.
	slice := func(i int) time.Duration {
		return time.Duration(cfg.seconds * cfg.w.share[i] / cycles * float64(time.Second))
	}
	yd := newYardstick()
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		for t0 := time.Now(); ; {
			st.tree.k.setOp(int64(st.tree.rounds))
			st.tree.round(true)
			if time.Since(t0) >= slice(0) {
				break
			}
		}
		yd.burst(c)
		for t0 := time.Now(); ; {
			st.app.step()
			if time.Since(t0) >= slice(1) {
				break
			}
		}
		yd.burst(c)
		st.serve.run(ctx, slice(2))
		yd.burst(c)
		st.tree.endCycle(c)
		st.app.endCycle(c)
		st.serve.endCycle(c)
	}
	res.attempted += st.tree.verifyAll() + st.tree.builds
	res.attempted += st.app.finish() + st.app.steps
	st.serve.finish(ctx)
	res.attempted += st.serve.attempted
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run cut short (deadline %v): %w", runDeadline, err)
	}

	elapsed := time.Since(start)
	rss := st.close()
	open = nil

	yard := yd.perCycle(cycles)
	st.tree.report(res.metrics, yard)
	st.app.report(res.metrics, yard)
	st.serve.report(res.metrics, yard)
	res.metrics.set("setup_s", median(setupS))
	res.metrics.set("bench.yardstick_ms", median(yd.runs))
	res.metrics.set("peak_rss_mb", peakRSSMB(os.Getpid())+rss)
	if cfg.traced {
		res.metrics.set("bench.span_overhead_frac",
			float64(res.tracer.spanCount())*spanCostNs()/float64(elapsed.Nanoseconds()))
	}
	res.failures = append(append(append(res.failures, st.tree.failed...), st.app.failed...), st.serve.failed...)
	res.identities = append([]string{st.tree.identity(), st.app.identity()}, st.serve.identities()...)
	return res, nil
}

// identityLine renders one accounting identity: the whole, the sum of
// its parts (the remainder is one of them, never dropped) and the gap.
func identityLine(label string, whole, parts float64) string {
	gap := 100 * math.Abs(whole-parts) / whole
	mark := "ok"
	if !(gap <= 3) {
		mark = "GAP"
	}
	return fmt.Sprintf("identity %-3s %6.2f%%  %s: %.3f vs %.3f", mark, gap, label, whole, parts)
}

// line turns a run into the contract's result line: exactly the metrics
// BENCHMARK.json lists for the pass, each finite (and non-zero for an
// end-to-end metric); anything else is a failed run.
func (r *runResult) line(defs []metricDef, traced bool) (resultLine, error) {
	out := resultLine{Attempted: max(r.attempted, 1), Failed: len(r.failures), Metrics: map[string]valueOut{}}
	var missing []string
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (!traced && v == 0) {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = valueOut{Value: v, Unit: d.Unit}
	}
	out.Correct = out.Failed == 0 && len(missing) == 0
	if len(missing) > 0 {
		return out, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// printHuman writes the metrics of the pass, the identities and the
// failures.
func (r *runResult) printHuman(cfg runConfig, defs []metricDef) {
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", cfg.w.name, cfg.seed, cfg.seconds, cfg.traced)
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.Name, r.metrics[d.Name], d.Unit)
	}
	if !cfg.traced {
		// What the ratios were taken from, for the reader.
		for _, name := range []string{"bench.yardstick_ms", "space_build_ms", "step_ms", "req_ms_p50"} {
			fmt.Printf("raw %-32s %14.4f ms\n", name, r.metrics[name])
		}
	}
	for _, s := range r.identities {
		fmt.Println(s)
	}
	for i, f := range r.failures {
		if i == 10 {
			fmt.Printf("FAILED ... and %d more\n", len(r.failures)-10)
			break
		}
		fmt.Println("FAILED", f)
	}
}

// findSrc locates the benchmark's source directory from the working
// directory: the repository root or the directory itself.
func findSrc() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module partree/benchmark") {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from benchmark/")
}

// compileServers builds partreed and partree-router into binDir before
// any clock starts.
func compileServers(srcDir, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator),
		"partree/cmd/partreed", "partree/cmd/partree-router")
	cmd.Dir = srcDir
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("compiling the servers: %w", err)
	}
	return time.Since(t0), nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: every workload)")
		seed    = flag.Int64("seed", 1, "seed of the body sets, the request mix and the arrival schedule")
		seconds = flag.Float64("seconds", 0, "with -workload: measured seconds; the driver passes run_seconds of BENCHMARK.json, which is also the default")
		trace   = flag.Int("trace", 0, "1 = traced pass: span recorder on, per-layer metrics, Chrome trace in out/")
		repeat  = flag.Int("repeat", 1, "suites of the same seed to run back to back; more than one prints the spreads")
		jsonOut = flag.String("json", "", "also write every result of the suite to this file")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace == 1, *repeat, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced bool, repeat int, jsonOut string) error {
	src, err := findSrc()
	if err != nil {
		return err
	}
	cat, err := loadCatalog(src)
	if err != nil {
		return err
	}
	outDir := filepath.Join(src, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if name == "" {
		if seconds != 0 {
			return errors.New("-seconds goes with -workload; the suite always measures run_seconds of BENCHMARK.json")
		}
		return suite(cat, src, seed, traced, repeat, jsonOut)
	}
	if seconds <= 0 {
		seconds = float64(cat.RunSeconds)
	}

	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	bin := filepath.Join(outDir, "bin")
	compile, err := compileServers(src, bin)
	if err != nil {
		return err
	}
	cfg := runConfig{w: w, seed: seed, seconds: seconds, traced: traced, binDir: bin, outDir: outDir}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	res.metrics.set("bench.compile_s", compile.Seconds())
	defs := cat.defs(traced)
	res.printHuman(cfg, defs)
	if traced {
		res.tracer.printSelfTimes(os.Stdout)
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := res.tracer.write(path); err != nil {
			return err
		}
		fmt.Println("trace written to", path)
	}
	line, err := res.line(defs, traced)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

// suiteRun is one child run of the suite.
type suiteRun struct {
	Workload string     `json:"workload"`
	Repeat   int        `json:"repeat"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
}

// suite runs every workload, each in a fresh child process of this
// binary (its own heap and its own peak RSS), repeat times with the same
// seed and so the same inputs, and prints the spread of every end-to-end
// metric against its bound.
func suite(cat *catalog, src string, seed int64, traced bool, repeat int, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	host := stampHost(src, seed)
	hb, _ := json.Marshal(host)
	fmt.Println("host", string(hb))
	var runs []suiteRun
	bad := 0
	for r := 0; r < repeat; r++ {
		for _, w := range workloads {
			for pass := 0; pass == 0 || pass == 1 && traced; pass++ {
				cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(pass))
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				os.Stdout.Write(out)
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var line resultLine
				if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil || jerr != nil || !line.Correct {
					bad++
					fmt.Printf("FAILED run: %s repeat %d trace %d: %v\n", w.name, r, pass, err)
					continue
				}
				runs = append(runs, suiteRun{Workload: w.name, Repeat: r, Traced: pass == 1, Result: line})
			}
		}
	}
	if repeat > 1 {
		printSpreads(cat, runs)
	}
	if jsonOut != "" {
		if err := writeRuns(jsonOut, host, runs); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d runs failed", bad)
	}
	return nil
}

// writeRuns writes the host stamp and one line per run.
func writeRuns(path string, host hostStamp, runs []suiteRun) error {
	var buf strings.Builder
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(&buf, "{\"host\": %s,\n \"runs\": [", hb)
	for i, r := range runs {
		rb, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, "\n  %s", rb)
	}
	buf.WriteString("\n ]}\n")
	return os.WriteFile(path, []byte(buf.String()), 0o644)
}

// printSpreads prints, per end-to-end metric and workload, the values of
// the repeated suites, their spread — (max−min)/median, and the distance
// between the quartiles over the median, which is what the driver holds
// against the bound — and the bound.
func printSpreads(cat *catalog, runs []suiteRun) {
	fmt.Printf("\n%-14s %-24s %10s %8s %8s %6s  values\n", "workload", "metric", "median", "range", "iqr", "bound")
	for _, w := range workloads {
		for _, d := range cat.EndToEnd {
			var vs []float64
			for _, r := range runs {
				if r.Workload == w.name && !r.Traced {
					vs = append(vs, r.Result.Metrics[d.Name].Value)
				}
			}
			if len(vs) < 2 {
				continue
			}
			s := sorted(vs)
			q1, q3 := quartiles(s)
			iqr := (q3 - q1) / median(s)
			mark := ""
			if iqr > d.Bound {
				mark = " WIDE"
			}
			strs := make([]string, len(vs))
			for i, v := range vs {
				strs[i] = fmt.Sprintf("%.4g", v)
			}
			fmt.Printf("%-14s %-24s %10.4g %7.1f%% %7.1f%% %5.0f%%  %s%s\n", w.name, d.Name, median(s),
				100*(s[len(s)-1]-s[0])/median(s), 100*iqr, 100*d.Bound, strings.Join(strs, " "), mark)
		}
	}
}
