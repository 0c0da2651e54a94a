package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"partree/internal/engine"
	"partree/internal/obs/obstest"
	"partree/internal/runner"
)

// startDaemon brings a daemon up on an ephemeral port and tears it down
// with the test.
func startDaemon(t *testing.T, cfg daemonConfig) *daemon {
	t.Helper()
	d, err := newDaemon(cfg)
	if err != nil {
		t.Fatalf("newDaemon: %v", err)
	}
	if err := d.start("127.0.0.1:0"); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { d.srv.Close() })
	return d
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeResult(t *testing.T, r io.Reader) runner.Result {
	t.Helper()
	var res runner.Result
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		t.Fatalf("decoding result: %v", err)
	}
	return res
}

// buildSpec is a small verified native build-only spec; vary to avoid
// the daemon's memoizing cache collapsing distinct requests.
func buildSpec(n, p int) map[string]any {
	return map[string]any{
		"backend": "native", "algorithm": "LOCAL", "build_only": true,
		"procs": p, "bodies": n, "steps": 2, "check": true,
	}
}

// metricValue extracts the first sample of a family from a Prometheus
// text page (ignoring labeled series' labels).
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? (\S+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", name, m[1])
	}
	return v
}

func TestDaemonConcurrentBuildsAndMetrics(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()

	// Concurrent builds: distinct sizes plus one duplicated spec that
	// must share the memoized execution. All come back verified.
	sizes := []int{1500, 2000, 2500, 3000, 2000}
	var wg sync.WaitGroup
	results := make([]runner.Result, len(sizes))
	codes := make([]int, len(sizes))
	for i, n := range sizes {
		wg.Add(1)
		go func(i, n int) {
			defer wg.Done()
			resp := postJSON(t, url+"/v1/build", buildSpec(n, 2))
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				results[i] = decodeResult(t, resp.Body)
			}
		}(i, n)
	}
	wg.Wait()
	for i, res := range results {
		if codes[i] != http.StatusOK {
			t.Fatalf("build %d: status %d", i, codes[i])
		}
		if res.Failed() {
			t.Fatalf("build %d failed: %s", i, res.FailureMessage())
		}
		if res.StepsDone != 2 || res.Cells == 0 || res.Leaves == 0 {
			t.Fatalf("build %d: implausible result %+v", i, res)
		}
	}

	// The engine pool's gauges moved: sessions were created, the stores
	// they retain are visible, and nothing is left running or queued.
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	pg := string(page)
	if v := metricValue(t, pg, "partree_engine_sessions_created_total"); v < 1 {
		t.Errorf("sessions_created_total = %v, want >= 1", v)
	}
	if v := metricValue(t, pg, "partree_store_retained_bytes"); v <= 0 {
		t.Errorf("store_retained_bytes = %v, want > 0 (pooled stores retained)", v)
	}
	if v := metricValue(t, pg, "partree_engine_sessions_in_use"); v != 0 {
		t.Errorf("sessions_in_use = %v after all builds returned, want 0", v)
	}
	if v := metricValue(t, pg, "partree_engine_queue_depth"); v != 0 {
		t.Errorf("queue_depth = %v at idle, want 0", v)
	}
	// Four distinct specs executed through the pool bounded at 2
	// concurrent builds; the duplicate was a cache hit.
	created := metricValue(t, pg, "partree_engine_sessions_created_total")
	reused := metricValue(t, pg, "partree_engine_sessions_reused_total")
	if created > 2 {
		t.Errorf("sessions_created_total = %v, want <= max-active (2)", created)
	}
	if created+reused < 4 {
		t.Errorf("created(%v)+reused(%v) = %v acquisitions, want >= 4", created, reused, created+reused)
	}
}

// TestBuildBodyMemoStaysInBudget sends 64 distinct fresh-seed builds at
// n = 20 000 — 118 MB of body sets, which an entry-bounded memo held
// whole — from two clients, scraping /metrics after each: every request
// succeeds, the memo never holds more than its 16 MiB budget, it evicts,
// and the runner's conservation and byte laws hold once idle.
func TestBuildBodyMemoStaysInBudget(t *testing.T) {
	const budget = 16 << 20 // the runner's bodiesCacheBytes
	const clients, requests = 2, 64
	d := startDaemon(t, daemonConfig{})
	url := d.srv.URL()
	gauge := regexp.MustCompile(`(?m)^partree_runner_body_memo_bytes (\S+)$`)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < requests; i += clients {
				spec := map[string]any{"backend": "native", "algorithm": "LOCAL", "build_only": true,
					"procs": 1, "bodies": 20000, "steps": 1, "model": "uniform", "seed": 1000 + i}
				buf, _ := json.Marshal(spec)
				resp, err := http.Post(url+"/v1/build", "application/json", bytes.NewReader(buf))
				if err != nil {
					t.Errorf("build %d: %v", i, err)
					return
				}
				var res runner.Result
				derr := json.NewDecoder(resp.Body).Decode(&res)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || derr != nil || res.Failed() {
					t.Errorf("build %d: status %d, decode %v, %s", i, resp.StatusCode, derr, res.FailureMessage())
					return
				}
				page, err := http.Get(url + "/metrics")
				if err != nil {
					t.Errorf("GET /metrics: %v", err)
					return
				}
				text, _ := io.ReadAll(page.Body)
				page.Body.Close()
				m := gauge.FindSubmatch(text)
				if m == nil {
					t.Errorf("/metrics carries no partree_runner_body_memo_bytes")
					return
				}
				if held, _ := strconv.ParseFloat(string(m[1]), 64); held > budget {
					t.Errorf("after build %d the body memo holds %v bytes, past its budget %d", i, held, budget)
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	pg := metricsPage(t, url)
	if v := metricValue(t, pg, "partree_runner_body_memo_bytes"); v <= 0 || v > budget {
		t.Errorf("body memo holds %v bytes at the end, want (0, %d]", v, budget)
	}
	if v := metricValue(t, pg, `partree_runner_evictions_total{cache="bodies"}`); v <= 0 {
		t.Errorf("64 sets of 1.8 MB evicted %v from a 16 MiB memo", v)
	}
	if err := d.r.AuditObs(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 2 * time.Minute})
	url := d.srv.URL()

	// A build slow enough to still be in flight when the drain begins.
	// The in-use poll below catches it within milliseconds of session
	// acquisition, so it need only outlast that — kept modest so the
	// post-drain wait stays well inside the timeout under -race.
	slow := map[string]any{
		"backend": "native", "algorithm": "LOCAL",
		"procs": 2, "bodies": 10000, "steps": 4,
	}
	type answer struct {
		code int
		res  runner.Result
	}
	slowDone := make(chan answer, 1)
	go func() {
		resp := postJSON(t, url+"/v1/build", slow)
		defer resp.Body.Close()
		a := answer{code: resp.StatusCode}
		if resp.StatusCode == http.StatusOK {
			a.res = decodeResult(t, resp.Body)
		}
		slowDone <- a
	}()

	// Wait until the build holds an engine session, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for d.eng.Stats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("slow build never acquired a session")
		}
		time.Sleep(5 * time.Millisecond)
	}
	drainDone := make(chan error, 1)
	go func() { drainDone <- d.drain(context.Background()) }()
	for !d.draining.Load() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected with 503 while the drain runs.
	resp := postJSON(t, url+"/v1/build", buildSpec(1024, 1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("build during drain: status %d, want 503", resp.StatusCode)
	}
	var e map[string]string
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if e["error"] == "" {
		t.Fatalf("503 carried no error document")
	}

	// The in-flight build is answered in full, and the drain completes.
	a := <-slowDone
	if a.code != http.StatusOK {
		t.Fatalf("in-flight build: status %d, want 200", a.code)
	}
	if a.res.Failed() {
		t.Fatalf("in-flight build failed: %s", a.res.FailureMessage())
	}
	if a.res.StepsDone != 4 {
		t.Fatalf("in-flight build cut short: %d/4 steps", a.res.StepsDone)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := d.eng.Stats(); st.InUse != 0 || st.Idle != 0 {
		t.Fatalf("post-drain pool not empty: %+v", st)
	}

	// The listener is down: a fresh connection is refused.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatalf("listener still accepting after drain")
	}
}

// TestServiceLimits: a spec arriving on a socket is held to the service
// limits before anything is allocated for it — an over-limit bodies,
// procs, steps or leaf_cap (on a session's open record too) answers 400
// naming the limit, a field the spec does not declare 400 naming the
// field, a backend other than native 400, and none generates a body set
// — while a small spec sitting
// exactly on the procs, steps and leaf_cap limits is served.
func TestServiceLimits(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()
	misses := func() float64 {
		return metricValue(t, metricsPage(t, url), "partree_runner_body_memo_misses_total")
	}
	post := func(path string, body any) (int, string) {
		resp := postJSON(t, url+path, body)
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	spec := func(field string, v int) map[string]any {
		s := map[string]any{"backend": "native", "algorithm": "LOCAL", "build_only": true, "bodies": 256}
		s[field] = v
		return s
	}
	maxProcs := runner.MaxServiceProcsPerCPU * runtime.GOMAXPROCS(0)
	before := misses()
	for _, c := range []struct {
		field string
		limit int
	}{
		{"bodies", runner.MaxServiceBodies}, {"procs", maxProcs}, {"steps", runner.MaxServiceSteps},
		{"leaf_cap", runner.MaxServiceLeafCap},
	} {
		over := spec(c.field, c.limit+1)
		if c.field == "bodies" {
			over = spec(c.field, 2_000_000_000) // ≈ 176 GB of bodies if it were generated
		}
		if code, msg := post("/v1/build", over); code != http.StatusBadRequest || !strings.Contains(msg, strconv.Itoa(c.limit)) {
			t.Errorf("/v1/build with %s over the limit: %d %s; want 400 naming %d", c.field, code, msg, c.limit)
		}
	}
	// A field the spec does not declare is refused, not ignored: a
	// misspelt bodies would be answered for the default 4096 bodies.
	for _, doc := range []string{
		`{"backend":"native","build_only":true,"bodeis":100000}`,
		`{"backend":"native","build_only":true,"trace":"/tmp/t.json"}`,
	} {
		if code, msg := post("/v1/build", json.RawMessage(doc)); code != http.StatusBadRequest || !strings.Contains(msg, "unknown field") {
			t.Errorf("/v1/build with %s: %d %s; want 400 naming the unknown field", doc, code, msg)
		}
	}
	// The service runs native specs only: another backend is refused,
	// not replayed.
	for _, doc := range []string{
		`{"backend":"simulated","platform":"origin","algorithm":"SPACE","procs":2,"bodies":256,"steps":1}`,
		`{"backend":"quantum","build_only":true,"bodies":256}`,
	} {
		if code, msg := post("/v1/build", json.RawMessage(doc)); code != http.StatusBadRequest || !strings.Contains(msg, "native specs only") {
			t.Errorf("/v1/build with %s: %d %s; want 400 naming the native backend", doc, code, msg)
		}
	}
	// 8 GiB for the first leaf if the open record were believed.
	if code, msg := post("/v1/session", map[string]any{"bodies": 64, "leaf_cap": 2147483648}); code != http.StatusBadRequest || !strings.Contains(msg, strconv.Itoa(runner.MaxServiceLeafCap)) {
		t.Errorf("/v1/session with leaf_cap over the limit: %d %s; want 400 naming %d", code, msg, runner.MaxServiceLeafCap)
	}
	if got := misses(); got != before {
		t.Errorf("refused requests generated %v body sets", got-before)
	}

	atLimit := spec("procs", maxProcs)
	atLimit["steps"] = runner.MaxServiceSteps
	atLimit["leaf_cap"] = runner.MaxServiceLeafCap
	if code, msg := post("/v1/build", atLimit); code != http.StatusOK || strings.Contains(msg, `"error"`) {
		t.Errorf("/v1/build at the limits: %d %s", code, msg)
	}
}

// TestFlagSurface pins partreed's flags — names, defaults and usage
// strings — to testdata/partreed.help: adding or removing a flag must
// edit the golden too (-update rewrites it).
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("partreed", flag.ContinueOnError)
	var help strings.Builder
	fs.SetOutput(&help)
	bindFlags(fs, &daemonConfig{})
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	obstest.Golden(t, "testdata/partreed.help", help.String())
}
