package main

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The e2e suite drives the real loadgen run loop against a real
// partreed subprocess on 127.0.0.1:0 — the two binaries' wire contract
// is the thing under test, so neither side is faked.

var (
	buildOnce sync.Once
	daemonBin string
	buildErr  error
)

func partreedBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "loadgen-e2e")
		if err != nil {
			buildErr = err
			return
		}
		daemonBin = filepath.Join(dir, "partreed")
		out, err := exec.Command("go", "build", "-o", daemonBin, "partree/cmd/partreed").CombinedOutput()
		if err != nil {
			buildErr = err
			t.Logf("building partreed: %s", out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building partreed: %v", buildErr)
	}
	return daemonBin
}

// startPartreed launches a daemon on a random port, with env added to
// its environment, and returns its base URL. The process is SIGTERMed
// (graceful drain) at test end.
func startPartreed(t *testing.T, env ...string) string {
	t.Helper()
	cmd := exec.Command(partreedBin(t), "-addr", "127.0.0.1:0", "-v", "info")
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting partreed: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "url="); i >= 0 {
				url := line[i+len("url="):]
				if j := strings.IndexByte(url, ' '); j >= 0 {
					url = url[:j]
				}
				select {
				case urls <- url:
				default:
				}
			}
		}
	}()
	select {
	case url := <-urls:
		return url
	case <-time.After(20 * time.Second):
		t.Fatal("partreed never logged its url")
		return ""
	}
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	return rep
}

func readTimingsCSV(t *testing.T, path string) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if i == 0 {
			if line != "metric,value" {
				t.Fatalf("timings header = %q", line)
			}
			continue
		}
		k, v, ok := strings.Cut(line, ",")
		if !ok {
			t.Fatalf("timings line %q is not k,v", line)
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("timings %s: %v", k, err)
		}
		out[k] = x
	}
	return out
}

// TestSessionRunDeterministicReport is the acceptance path: a seeded
// bursty-diurnal session workload against a live partreed, run twice,
// must produce byte-identical reports; the measured timings must be
// internally consistent (p99 ≥ p50).
func TestSessionRunDeterministicReport(t *testing.T) {
	url := startPartreed(t)
	dir := t.TempDir()
	runOnce := func(tag string) (string, map[string]float64) {
		rep := filepath.Join(dir, "report-"+tag+".json")
		tim := filepath.Join(dir, "timings-"+tag+".csv")
		err := run(url, "session", "plummer", "bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6",
			time.Second, 0, 512, 2, 4, 1998, 60*time.Second,
			0, false, rep, tim)
		if err != nil {
			t.Fatalf("run %s: %v", tag, err)
		}
		raw, err := os.ReadFile(rep)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), readTimingsCSV(t, tim)
	}
	r1, tim := runOnce("a")
	r2, _ := runOnce("b")
	// The "slow" p99_* pointers name whichever request measured
	// slowest — the report's one deliberately non-deterministic
	// section. Everything else must be byte-identical.
	stripMeasured := func(s string) string {
		lines := strings.Split(s, "\n")
		out := lines[:0]
		for _, line := range lines {
			if !strings.Contains(line, `"p99_`) {
				out = append(out, line)
			}
		}
		return strings.Join(out, "\n")
	}
	if stripMeasured(r1) != stripMeasured(r2) {
		t.Errorf("two identical runs produced different report bytes:\n--- a ---\n%s\n--- b ---\n%s", r1, r2)
	}

	rep := readReport(t, filepath.Join(dir, "report-a.json"))
	if rep.Outcomes.OK == 0 || rep.Outcomes.Rejected != 0 || rep.Outcomes.Failed != 0 {
		t.Errorf("outcomes = %+v, want all-ok under ample capacity", rep.Outcomes)
	}
	if rep.Schedule.Arrivals != rep.Outcomes.OK {
		t.Errorf("%d arrivals but %d ok sessions", rep.Schedule.Arrivals, rep.Outcomes.OK)
	}
	if got := rep.Metrics.SessionsOpened; got != int64(rep.Outcomes.OK) {
		t.Errorf("sessions_opened delta = %d, want %d", got, rep.Outcomes.OK)
	}
	rids := map[string]bool{}
	for _, s := range rep.Sessions {
		if s.Steps != 4 || s.Closed != "close" {
			t.Errorf("session %d: steps=%d closed=%q, want 4 steps closed cleanly", s.ID, s.Steps, s.Closed)
		}
		if len(s.RequestID) != 32 {
			t.Errorf("session %d: request_id = %q, want the 32-hex traceparent trace-id", s.ID, s.RequestID)
		}
		rids[s.RequestID] = true
	}
	if len(rids) != len(rep.Sessions) {
		t.Errorf("request IDs are not unique per arrival: %d ids over %d sessions", len(rids), len(rep.Sessions))
	}
	if rep.Slow == nil || !rids[rep.Slow.P99StepRequestID] {
		t.Errorf("slow = %+v, want a p99 step pointer naming one of the run's request IDs", rep.Slow)
	}
	if tim["completed"] != float64(rep.Outcomes.OK) {
		t.Errorf("timings completed = %g, want %d", tim["completed"], rep.Outcomes.OK)
	}
	if tim["p99_ms"] < tim["p50_ms"] || tim["p50_ms"] <= 0 {
		t.Errorf("latency percentiles inconsistent: p50=%g p99=%g", tim["p50_ms"], tim["p99_ms"])
	}
}

// TestBuildOverloadMatchesRejectedCounter hammers a daemon with one
// build slot (GOMAXPROCS=1) and so a queue of 4 with concurrent build
// arrivals: the client-observed 503 count must equal the server's
// partree_engine_rejected_total delta.
func TestBuildOverloadMatchesRejectedCounter(t *testing.T) {
	url := startPartreed(t, "GOMAXPROCS=1")
	rep := filepath.Join(t.TempDir(), "report.json")
	err := run(url, "build", "hierarchical", "poisson:rate=200",
		200*time.Millisecond, 0, 30000, 2, 1, 1998, 60*time.Second,
		0, false, rep, "")
	if err != nil {
		t.Fatal(err)
	}
	r := readReport(t, rep)
	if r.Outcomes.Rejected == 0 {
		t.Fatal("overload run saw no 503s; admission control never engaged")
	}
	var counted int64
	for _, v := range r.Metrics.EngineRejected {
		counted += v
	}
	if counted != int64(r.Outcomes.Rejected) {
		t.Errorf("client saw %d rejections, server counters moved by %d (%v)",
			r.Outcomes.Rejected, counted, r.Metrics.EngineRejected)
	}
}

// TestMandatoryTimeout pins the contract that a run cannot be started
// without a wall-clock bound.
func TestMandatoryTimeout(t *testing.T) {
	err := run("http://127.0.0.1:1", "session", "plummer", "poisson:rate=10",
		time.Second, 0, 64, 1, 1, 1, 0, 0, false, "", "")
	if err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("run without a timeout returned %v, want a mandatory-timeout error", err)
	}
}
