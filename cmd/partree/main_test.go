package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/obs/obstest"
	"partree/internal/runner"
)

// The output files under testdata were captured from the four binaries
// this command replaced (cmd/nbody, cmd/treebench, cmd/simbench,
// cmd/paperrepro at commit 90dbd8e): the stdout of one small run per
// output mode. The tests below hold `partree <subcommand>` to them byte
// for byte, after the normalisation each comment names. The <sub>.help
// pages are each subcommand's -h as it is now (TestFlagSurface).

// partree runs the driver in-process.
func partree(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// hostDefault is the one flag default a subcommand takes from the host,
// -p's, and the placeholder its testdata/<sub>.help page carries instead.
var hostDefault = map[string]struct{ placeholder, value string }{
	"nbody":     {"{{GOMAXPROCS}}", strconv.Itoa(runtime.GOMAXPROCS(0))},
	"treebench": {"{{HOSTPROCS}}", hostProcs()},
}

// TestFlagSurface pins each subcommand's -h page — usage line, flag
// names, defaults and usage strings — to testdata/<sub>.help: adding or
// removing a flag must edit the golden too (-update rewrites it).
func TestFlagSurface(t *testing.T) {
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		var help strings.Builder
		fs.SetOutput(&help)
		c.flags(fs)
		if h, ok := hostDefault[c.name]; ok {
			fs.Lookup("p").DefValue = h.placeholder
		}
		if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
			t.Fatalf("%s -h: %v, want flag.ErrHelp", c.name, err)
		}
		obstest.Golden(t, "testdata/"+c.name+".help", help.String())
	}
}

// TestFlagListsMatchParent: `partree <subcommand> -h` exits 0 and prints
// the page TestFlagSurface pins, the host's -p default in place of the
// placeholder.
func TestFlagListsMatchParent(t *testing.T) {
	for _, c := range commands {
		_, help, code := partree(t, c.name, "-h")
		if code != 0 {
			t.Errorf("%s -h: exit %d, want 0", c.name, code)
		}
		want := golden(t, c.name+".help")
		if h, ok := hostDefault[c.name]; ok {
			want = strings.Replace(want, h.placeholder, h.value, 1)
		}
		if help != want {
			t.Errorf("%s -h diverged from testdata/%s.help.\ngot:\n%s\nwant:\n%s", c.name, c.name, help, want)
		}
	}
}

var (
	wallClock   = regexp.MustCompile(`"(wall_ns|gen_ns)":[0-9]+`)
	nativeTime  = regexp.MustCompile(`"(\w+_ns|tree_share)":[-+.e0-9]+`)
	nativeLocks = regexp.MustCompile(`"locks_total":[0-9]+,"locks_per_proc":\[[0-9,]*\]`)
	retries     = regexp.MustCompile(`"retries":[0-9]+,`)
	duration    = regexp.MustCompile(`=[0-9.]+[mµn]?s`)
	treeShare   = regexp.MustCompile(`tree [0-9.]+%`)
	regenerated = regexp.MustCompile(`(?m)^\[regenerated in .*\]\n`)
)

// records zeroes what a Result record measures on the host's clock:
// wall_ns and gen_ns everywhere, and on native records every *_ns and
// tree_share; past one processor a native build's lock and retry counts
// depend on the interleaving, so they are blanked too. Everything else —
// every simulated number, every tree statistic — must match.
func records(s string) string {
	lines := strings.SplitAfter(s, "\n")
	for i, l := range lines {
		l = wallClock.ReplaceAllString(l, `"$1":0`)
		if strings.Contains(l, `"backend":"native"`) {
			l = nativeTime.ReplaceAllString(l, `"$1":0`)
			if !strings.Contains(l, `"procs":1,`) {
				l = nativeLocks.ReplaceAllString(l, `"locks_total":0,"locks_per_proc":[]`)
				l = retries.ReplaceAllString(l, "")
			}
		}
		lines[i] = l
	}
	return strings.Join(lines, "")
}

// stepTimes blanks the wall-clock durations and the tree share of nbody's
// per-step lines.
func stepTimes(s string) string {
	return treeShare.ReplaceAllString(duration.ReplaceAllString(s, "=T"), "tree X%")
}

func exact(s string) string { return s }

// TestOutputMatchesParent: the text output and the -json wire of each
// subcommand, against what the binary it replaced printed.
func TestOutputMatchesParent(t *testing.T) {
	for _, c := range []struct {
		golden string
		norm   func(string) string
		args   []string
	}{
		{"simbench.json", records, []string{"simbench", "-n", "2048", "-p", "4", "-alg", "space", "-platform", "origin", "-json"}},
		{"simbench_noseq.txt", exact, []string{"simbench", "-n", "2048", "-p", "4", "-alg", "space", "-platform", "origin", "-noseq"}},
		{"paperrepro_T1.txt", func(s string) string { return regenerated.ReplaceAllString(s, "") },
			[]string{"paperrepro", "-exp", "T1", "-sizes", "2048", "-csv=false", "-out", t.TempDir()}},
		{"treebench.json", records, []string{"treebench", "-n", "4096", "-p", "1,2", "-reps", "1", "-check", "-json"}},
		{"nbody.json", records, []string{"nbody", "-n", "1024", "-p", "2", "-steps", "2", "-json"}},
		{"nbody.txt", stepTimes, []string{"nbody", "-n", "1024", "-p", "2", "-steps", "2"}},
	} {
		out, errs, code := partree(t, c.args...)
		if code != 0 {
			t.Errorf("partree %v: exit %d\n%s", c.args, code, errs)
			continue
		}
		if got, want := c.norm(out), c.norm(golden(t, c.golden)); got != want {
			t.Errorf("partree %v diverged from %s.\ngot:\n%s\nwant:\n%s", c.args, c.golden, got, want)
		}
		if strings.HasSuffix(c.golden, ".json") {
			// The wire decodes into runner.Result with no field left over.
			dec := json.NewDecoder(strings.NewReader(out))
			dec.DisallowUnknownFields()
			for dec.More() {
				var res runner.Result
				if err := dec.Decode(&res); err != nil {
					t.Errorf("partree %v: record does not decode into runner.Result: %v", c.args, err)
					break
				}
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want []string // substrings of stderr
	}{
		{"bare", nil, []string{"usage: partree <subcommand>", "nbody", "treebench", "simbench", "paperrepro"}},
		{"unknown subcommand", []string{"galaxy"}, []string{`unknown subcommand "galaxy"`, "usage: partree <subcommand>"}},
		{"unknown flag", []string{"simbench", "-bogus"}, []string{"flag provided but not defined: -bogus"}},
		{"bad algorithm", []string{"nbody", "-alg", "SPCAE"}, []string{"ORIG, LOCAL, UPDATE, PARTREE, SPACE"}},
		{"bad log level", []string{"treebench", "-v", "loud"}, []string{"debug, info, warn, error"}},
		{"bad platform", []string{"simbench", "-platform", "cray"}, []string{"challenge, origin, paragon, typhoon-hlrc, typhoon-sc"}},
		{"bad processor list", []string{"treebench", "-p", "1,x"}, []string{"bad processor count"}},
		// One node arena per processor, octree.MaxArenas of them: past that a
		// build used to panic in a runner goroutine nothing recovers.
		{"simbench past 64 processors", []string{"simbench", "-p", "65"}, []string{"procs 65 exceeds the builders' limit 64"}},
		{"treebench past 64 processors", []string{"treebench", "-p", "65", "-n", "1024"}, []string{"procs 65 exceeds the builders' limit 64"}},
	} {
		out, errs, code := partree(t, c.args...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and nothing on stdout", c.name, code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(errs, w) {
				t.Errorf("%s: stderr lacks %q:\n%s", c.name, w, errs)
			}
		}
	}
}

// TestFailedSpecExitsOne: a spec that fails — here by timing out before
// its first repetition — is reported in-band under -json, logged with its
// grid coordinates in text mode, and exits 1 either way; so does a -check
// violation, which only a corrupted tree can produce (internal/verify's
// tests), so it is shown on the status function every mode exits through.
func TestFailedSpecExitsOne(t *testing.T) {
	args := []string{"treebench", "-n", "4096", "-p", "1", "-alg", "local", "-timeout", "1ns"}
	out, _, code := partree(t, append(args, "-json")...)
	var res runner.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("decoding %q: %v", out, err)
	}
	if code != 1 || res.Err == "" || res.StepsDone != 0 {
		t.Errorf("-json: exit %d, record %+v; want exit 1 and an error record with no step done", code, res)
	}
	_, errs, code := partree(t, args...)
	if code != 1 || !strings.Contains(errs, `msg="spec failed"`) || !strings.Contains(errs, "alg=LOCAL n=4096 p=1 seed=1") {
		t.Errorf("text: exit %d, stderr:\n%s\nwant exit 1 and the failed spec logged with its coordinates", code, errs)
	}
	if got := status(runner.Result{}, runner.Result{CheckFailure: "leaf 7: body outside its cell"}); got != 1 {
		t.Errorf("status with a check failure = %d, want 1", got)
	}
}

// serving runs the driver with -http on a free port and returns once the
// subcommand has written its first line of stdout: stdout is an
// unbuffered pipe, so from then on the subcommand is parked on its next
// write with the server still up. get fetches a path from that server;
// finish lets the run complete and returns its exit status and stderr.
func serving(t *testing.T, args ...string) (get func(path string) []byte, finish func() (int, string)) {
	t.Helper()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan int)
	go func() {
		code := run(append(args, "-http", "127.0.0.1:0"), pw, &stderr)
		pw.Close()
		done <- code
	}()
	stdout := bufio.NewReader(pr)
	if _, err := stdout.ReadString('\n'); err != nil {
		t.Fatalf("reading %s's first line: %v\n%s", args[0], err, stderr.String())
	}
	m := regexp.MustCompile(`msg="obs: serving" .*url=(\S+)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no serving line on stderr:\n%s", stderr.String())
	}
	get = func(path string) []byte {
		t.Helper()
		resp, err := http.Get(m[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		return body
	}
	finish = func() (int, string) {
		io.Copy(io.Discard, stdout)
		return <-done, stderr.String()
	}
	return get, finish
}

// TestHTTPServesWhileRunning: with -http the driver serves /healthz —
// naming the subcommand as the binary — and the runner's and engine's
// /metrics for as long as the run lasts.
func TestHTTPServesWhileRunning(t *testing.T) {
	get, finish := serving(t, "nbody", "-n", "256", "-p", "1", "-steps", "1")
	var health struct{ Status, Binary string }
	if err := json.Unmarshal(get("/healthz"), &health); err != nil || health.Status != "ok" || health.Binary != "nbody" {
		t.Errorf("/healthz = %+v (%v), want status ok from binary nbody", health, err)
	}
	for _, series := range []string{"partree_runner_runs_total", "partree_engine_max_active", "partree_build_total", "go_goroutines"} {
		if !bytes.Contains(get("/metrics"), []byte("\n"+series)) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
	if code, stderr := finish(); code != 0 {
		t.Errorf("exit %d\n%s", code, stderr)
	}
}

// TestMetricsSurface holds the -http /metrics page of a running
// subcommand to the surface captured from the parent of the commit that
// moved every counter into the component that counts it: treebench's is
// the page every subcommand serves, paperrepro adds its sweep progress.
func TestMetricsSurface(t *testing.T) {
	for name, args := range map[string][]string{
		"treebench":  {"treebench", "-n", "256", "-p", "1", "-reps", "1"},
		"paperrepro": {"paperrepro", "-exp", "T1", "-sizes", "256", "-out", t.TempDir()},
	} {
		get, finish := serving(t, args...)
		obstest.Golden(t, "testdata/"+name+".metrics", obstest.Surface(string(get("/metrics"))))
		if code, stderr := finish(); code != 0 {
			t.Errorf("%s: exit %d\n%s", name, code, stderr)
		}
	}
}

// TestPaperreproFailedCellExitsOne: a sweep cell that fails is a verdict
// on the reproduction. Here every cell of Figure 6 is refused by a
// draining engine: each prints "-" (no NaN), each failed spec is logged
// once with its grid coordinates, the CSV dump still lands, and the exit
// status is 1. The row is bound and run as the driver does, over a runner
// the test supplies.
func TestPaperreproFailedCellExitsOne(t *testing.T) {
	eng := engine.New(engine.Options{MaxActive: 2})
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if err := obs.SetLogger(&errs, "paperrepro", "info"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := paperreproCmd
	cmd.stdout, cmd.r = &out, runner.NewWithConfig(runner.Config{Engine: eng})
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	_, _, runCmd := cmd.flags(fs)
	if err := fs.Parse([]string{"-exp", "F6", "-sizes", "1024", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	if code := runCmd(); code != 1 {
		t.Errorf("exit %d, want 1\n%s", code, errs.String())
	}
	text := out.String()
	if strings.Contains(text, "NaN") || strings.Count(text, "  -\n") != 5 {
		t.Errorf("want five \"-\" cells and no NaN:\n%s", text)
	}
	// Five algorithms and the sequential baseline they share.
	if got := strings.Count(errs.String(), `msg="sweep cell failed"`); got != 6 {
		t.Errorf("%d failed-cell log lines, want 6:\n%s", got, errs.String())
	}
	for _, want := range []string{"alg=SPACE n=1024 p=16 seed=1998 platform=challenge experiment=F6", "draining"} {
		if !strings.Contains(errs.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, errs.String())
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "outcomes.csv")); err != nil {
		t.Errorf("the partial CSV dump did not land: %v", err)
	}
}
