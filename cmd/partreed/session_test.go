package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/wire"
)

// sessionClient drives one /v1/session stream through the shared stream
// client, failing the test on a transport error.
type sessionClient struct {
	t *testing.T
	*wire.Session
}

// openSession opens a stream and consumes the "opened" record. A nil
// return means the server answered non-200 (the status is returned).
func openSession(t *testing.T, url string, open wire.SessionOpen) (*sessionClient, int) {
	t.Helper()
	sess, err := wire.OpenSession(context.Background(), url, "", open)
	if err != nil {
		t.Fatalf("POST /v1/session: %v", err)
	}
	if sess.Status != http.StatusOK {
		sess.Close()
		return nil, sess.Status
	}
	c := &sessionClient{t: t, Session: sess}
	t.Cleanup(c.Close)
	if r := c.recv(); r.Event != "opened" || r.Opened.N != open.Bodies {
		t.Fatalf("first record = %+v, want opened with n=%d", r, open.Bodies)
	}
	return c, sess.Status
}

func (c *sessionClient) send(s wire.SessionStep) {
	c.t.Helper()
	if err := c.Send(s); err != nil {
		c.t.Fatalf("sending step: %v", err)
	}
}

func (c *sessionClient) recv() wire.SessionRecord {
	c.t.Helper()
	r, err := c.Recv()
	if err != nil {
		c.t.Fatalf("reading stream record: %v", err)
	}
	return r
}

func metricsPage(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	return string(page)
}

// ruleRebuild reports whether r is a rebuild the session's rebuild rule
// asked for, and fails the test unless it was served as one must be:
// fresh, requested, through SPACE's zero-lock path.
func ruleRebuild(t *testing.T, r wire.SessionStepResult) bool {
	t.Helper()
	if r.Fallback && (r.Mode != "rebuild" || r.Reason != "requested" || r.Locks != 0) {
		t.Fatalf("step %d: a rule rebuild served as mode %q reason %q with %d locks", r.Step, r.Mode, r.Reason, r.Locks)
	}
	return r.Fallback
}

// leaseReason fails the test unless r's reason is one a lease can give:
// its stepper numbers the steps 0, 1, 2, … over a fixed body count, so a
// step builds fresh only as the first or on request.
func leaseReason(t *testing.T, r wire.SessionStepResult) {
	t.Helper()
	switch r.Reason {
	case "", "first", "requested":
	default:
		t.Errorf("step %d: reason %q, want \"\", \"first\" or \"requested\"", r.Step, r.Reason)
	}
}

// maxRuleRebuilds is the most rule rebuilds steps-1 steps after the first
// can hold: the rule measures three repairs after every fresh build and
// asks only after a fourth, so at most one step in five rebuilds. Which
// steps do depends on this host's step times; that bound does not.
func maxRuleRebuilds(steps int) int { return (steps - 1) / 5 }

// TestSessionStream100Steps is the tentpole e2e: 100 drifting timesteps
// against one resident tree, every step's tree differentially verified
// server-side, every step after the first an incremental update or a
// rebuild the rule asked for.
func TestSessionStream100Steps(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 2, Bodies: 3000, Seed: 1, Dt: 0.005, Check: true}
	c, _ := openSession(t, d.srv.URL(), open)

	const steps = 100
	rebuilds := 0
	for i := 0; i < steps; i++ {
		c.send(wire.SessionStep{Drift: i > 0})
		r := c.recv()
		if r.Event != "step" {
			t.Fatalf("step %d: got %+v", i, r)
		}
		if r.Step.Step != i {
			t.Fatalf("step %d: server says step %d", i, r.Step.Step)
		}
		if !r.Step.Verified {
			t.Fatalf("step %d: not verified", i)
		}
		leaseReason(t, r.Step)
		switch {
		case i == 0:
			if r.Step.Mode != "rebuild" || r.Step.Reason != "first" {
				t.Fatalf("step 0: mode %q reason %q, want the first rebuild", r.Step.Mode, r.Step.Reason)
			}
		case ruleRebuild(t, r.Step):
			rebuilds++
		case r.Step.Mode != "update":
			t.Fatalf("step %d: mode %q reason %q, neither an update nor a rule rebuild", i, r.Step.Mode, r.Step.Reason)
		}
	}
	if rebuilds > maxRuleRebuilds(steps) {
		t.Fatalf("%d rule rebuilds in %d steps, more than one in five", rebuilds, steps)
	}
	c.send(wire.SessionStep{Close: true})
	if r := c.recv(); r.Event != "closed" || r.Closed.Steps != steps || r.Closed.Fallbacks != rebuilds {
		t.Fatalf("close ack = %+v, want closed with steps=%d fallbacks=%d", r, steps, rebuilds)
	}

	pg := metricsPage(t, d.srv.URL())
	if v := metricValue(t, pg, "partree_session_opened_total"); v != 1 {
		t.Errorf("session_opened_total = %v, want 1", v)
	}
	if v := metricValue(t, pg, "partree_session_closed_total"); v != 1 {
		t.Errorf("session_closed_total = %v, want 1", v)
	}
	// The per-step histogram saw both serving modes.
	for _, mode := range []string{"update", "rebuild"} {
		name := fmt.Sprintf(`partree_session_step_seconds_count{mode=%q}`, mode)
		if v := metricValue(t, pg, name); v < 1 {
			t.Errorf("%s = %v, want >= 1", name, v)
		}
	}
}

// TestSessionRepairsWhereOneShotsRebuild is the acceptance test for the
// resident tree, stated as the work it avoids rather than as a
// wall-clock ratio (which a loaded host can invert): over 100 drifting
// Plummer steps the session builds fresh at step 0 and otherwise repairs
// — every later step an update that moves under half the bodies, or a
// rebuild the rule asked for (at most one step in five), never an
// unplanned one — while 100 one-shot /v1/build requests at equal n and P
// build a whole tree each. The build totals are process-global, so they
// are read as deltas around the run.
func TestSessionRepairsWhereOneShotsRebuild(t *testing.T) {
	const n, p, steps = 10000, 2, 100
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()
	scrape := func() map[string]float64 {
		m, err := obs.ParseText(strings.NewReader(metricsPage(t, url)))
		if err != nil {
			t.Fatalf("parsing /metrics: %v", err)
		}
		return m
	}
	before := scrape()

	t0 := time.Now()
	for i := 0; i < steps; i++ {
		// Distinct seeds so the runner's memoizing result cache cannot
		// serve repeats — each request must really build.
		spec := map[string]any{
			"backend": "native", "algorithm": "LOCAL", "build_only": true,
			"procs": p, "bodies": n, "steps": 1, "seed": 1000 + i,
		}
		resp := postJSON(t, url+"/v1/build", spec)
		res := decodeResult(t, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || res.Failed() {
			t.Fatalf("one-shot %d: status %d, %s", i, resp.StatusCode, res.FailureMessage())
		}
	}
	oneShots := time.Since(t0)

	c, _ := openSession(t, url, wire.SessionOpen{Procs: p, Bodies: n, Seed: 7, Dt: 0.005})
	var updates, rebuilds int
	var moved int64
	t0 = time.Now()
	for i := 0; i < steps; i++ {
		c.send(wire.SessionStep{Drift: i > 0})
		r := c.recv()
		if r.Event != "step" {
			t.Fatalf("session step %d: %+v", i, r)
		}
		leaseReason(t, r.Step)
		switch {
		case i == 0:
			if r.Step.Mode != "rebuild" {
				t.Fatalf("step 0: mode %q, want rebuild", r.Step.Mode)
			}
		case r.Step.Mode == "update":
			updates++
			if r.Step.Moved >= n/2 {
				t.Errorf("step %d: an update moved %d of %d bodies", i, r.Step.Moved, n)
			}
		case ruleRebuild(t, r.Step):
			rebuilds++
		default:
			t.Errorf("step %d: mode %q reason %q is neither an update nor a rule rebuild", i, r.Step.Mode, r.Step.Reason)
		}
		moved += r.Step.Moved
	}
	session := time.Since(t0)
	c.send(wire.SessionStep{Close: true})
	c.recv()
	t.Logf("100 one-shot builds: %v; 100-step session: %v (%.1fx)",
		oneShots, session, float64(oneShots)/float64(session))

	if rebuilds > maxRuleRebuilds(steps) {
		t.Errorf("%d of %d later steps were rule rebuilds, more than one in five", rebuilds, steps-1)
	}
	after := scrape()
	delta := func(series string) float64 { return after[series] - before[series] }
	resident, cold := delta(`partree_build_leaves_total{alg="UPDATE"}`), delta(`partree_build_leaves_total{alg="LOCAL"}`)
	// A fresh build allocates at most what a one-shot does (SPACE's sort
	// splits no leaf); the repairs, the rest.
	repaired := resident - float64(1+rebuilds)*cold/steps
	t.Logf("%d/%d updates moving %d bodies, %d rule rebuilds; leaves allocated: session %v (repairs %v), one-shots %v",
		updates, steps-1, moved, rebuilds, resident, repaired, cold)
	if resident <= 0 || repaired >= cold/5 {
		t.Errorf("session repairs allocated %v leaves, the one-shots %v: want under a fifth", repaired, cold)
	}
	if v := delta(`partree_build_bodies_moved_total{alg="UPDATE"}`); v != float64(moved) {
		t.Errorf("bodies_moved_total{UPDATE} rose by %v, the stream reported %d moved", v, moved)
	}
}

// TestSessionFallbackUnderHighChurn drifts a session, rebuilds it on the
// client's word, then collapses the cluster. Whether and where the rebuild
// rule fires depends on this host's step times, so the test holds what is
// true whatever they were: every step verifies, a rebuild:true is never
// counted as the rule's, every rule rebuild is a zero-lock requested SPACE
// rebuild, and the stream, the close ack and /metrics agree on the count.
func TestSessionFallbackUnderHighChurn(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 2, Bodies: 3000, Seed: 3, Check: true}
	c, _ := openSession(t, d.srv.URL(), open)

	const steps, asked = 20, 8
	fallbacks := 0
	for i := 0; i < steps; i++ {
		step := wire.SessionStep{Drift: true}
		switch {
		case i == asked:
			step = wire.SessionStep{Rebuild: true}
		case i > asked:
			step = wire.SessionStep{Collapse: 0.4}
		}
		c.send(step)
		r := c.recv()
		if r.Event != "step" || !r.Step.Verified {
			t.Fatalf("step %d: %+v", i, r)
		}
		if i == asked && (r.Step.Mode != "rebuild" || r.Step.Reason != "requested" || r.Step.Fallback) {
			t.Fatalf("rebuild:true step: mode %q reason %q fallback %v, want a requested rebuild that is not the rule's",
				r.Step.Mode, r.Step.Reason, r.Step.Fallback)
		}
		if ruleRebuild(t, r.Step) {
			fallbacks++
		}
	}
	if fallbacks > maxRuleRebuilds(steps) {
		t.Fatalf("%d rule rebuilds in %d steps, more than one in five", fallbacks, steps)
	}
	c.send(wire.SessionStep{Close: true})
	if r := c.recv(); r.Event != "closed" || r.Closed.Fallbacks != fallbacks {
		t.Fatalf("close ack = %+v, want closed with fallbacks=%d", r, fallbacks)
	}

	pg := metricsPage(t, d.srv.URL())
	if v := metricValue(t, pg, "partree_session_fallbacks_total"); v != float64(fallbacks) {
		t.Errorf("session_fallbacks_total = %v, want %d", v, fallbacks)
	}
}

// TestSessionIdleEviction lets a session go quiet past its idle timeout
// and expects the server to end the stream with an eviction record.
func TestSessionIdleEviction(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 1, Bodies: 500, Seed: 1, IdleTimeoutMs: 50}
	c, _ := openSession(t, d.srv.URL(), open)
	c.send(wire.SessionStep{})
	if r := c.recv(); r.Event != "step" {
		t.Fatalf("step: %+v", r)
	}
	// Go quiet. The lease's idle timer must evict and the server must
	// say so in-stream before closing.
	r := c.recv()
	if r.Event != "error" || r.Err.Error != "session closed: idle timeout" {
		t.Fatalf("eviction record = %+v", r)
	}
	if r = c.recv(); r.Event != "closed" || r.Closed.Reason != "idle timeout" {
		t.Fatalf("final record = %+v", r)
	}
	if v := metricValue(t, metricsPage(t, d.srv.URL()), "partree_session_evicted_total"); v != 1 {
		t.Errorf("session_evicted_total = %v, want 1", v)
	}
}

// TestSessionLeaseExhaustion503 checks lease capacity surfaces as a 503
// before the stream opens, and frees up when a session closes.
func TestSessionLeaseExhaustion503(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2, MaxLeases: 1}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 1, Bodies: 500, Seed: 1}
	c, _ := openSession(t, d.srv.URL(), open)
	if _, code := openSession(t, d.srv.URL(), open); code != http.StatusServiceUnavailable {
		t.Fatalf("second session: status %d, want 503", code)
	}
	c.send(wire.SessionStep{Close: true})
	c.recv()
	// The lease is released on handler exit; capacity returns shortly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := openSession(t, d.srv.URL(), open); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lease capacity never freed after session close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSessionDrainClosesStreams checks graceful drain: in-flight
// sessions get an in-stream notice and a clean close, new sessions get
// 503, and the drain itself completes.
func TestSessionDrainClosesStreams(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: time.Minute})
	open := wire.SessionOpen{Procs: 1, Bodies: 500, Seed: 1}
	c, _ := openSession(t, d.srv.URL(), open)
	c.send(wire.SessionStep{})
	if r := c.recv(); r.Event != "step" {
		t.Fatalf("step: %+v", r)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- d.drain(context.Background()) }()

	r := c.recv()
	if r.Event != "error" || r.Err.Error != "session closed: draining" {
		t.Fatalf("drain record = %+v", r)
	}
	if r = c.recv(); r.Event != "closed" || r.Closed.Reason != "draining" {
		t.Fatalf("final record = %+v", r)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSessionRefusesUnbuildableExtent: a step whose dt overflows the
// bodies' positions used to reach the builder, which never returned and
// held its engine slot and the lease. The server must refuse it
// in-stream, at once.
func TestSessionRefusesUnbuildableExtent(t *testing.T) {
	const n = 5000
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1}, drainTimeout: 10 * time.Second})
	for name, tc := range map[string]struct {
		dt   float64
		step wire.SessionStep
	}{
		"dt overflows the drift": {1e308, wire.SessionStep{Drift: true}},
	} {
		t.Run(name, func(t *testing.T) {
			c, _ := openSession(t, d.srv.URL(), wire.SessionOpen{Procs: 1, Bodies: n, Seed: 1, Model: "plummer", Dt: tc.dt})
			c.send(wire.SessionStep{})
			if r := c.recv(); r.Event != "step" {
				t.Fatalf("step 0: %+v", r)
			}
			c.send(tc.step)
			got := make(chan wire.SessionRecord, 1)
			go func() {
				r, _ := c.Recv()
				got <- r
			}()
			select {
			case r := <-got:
				if r.Event != "error" || !strings.Contains(r.Err.Error, "non-finite") {
					t.Fatalf("got %+v, want an in-stream error naming the non-finite extent", r)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("no answer in 10 s: the step reached the builder")
			}
		})
	}
	// The refused step kept neither the engine's one slot nor the lease.
	c, _ := openSession(t, d.srv.URL(), wire.SessionOpen{Procs: 1, Bodies: n, Seed: 2})
	c.send(wire.SessionStep{})
	if r := c.recv(); r.Event != "step" {
		t.Fatalf("a session after the refusals: %+v", r)
	}
}

// postSession POSTs a raw session stream and returns the status and the
// whole answer.
func postSession(t *testing.T, url, stream string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/session", "application/x-ndjson", strings.NewReader(stream))
	if err != nil {
		t.Fatalf("POST /v1/session: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestSessionRefusesUndeclaredFields: a record naming a field it does not
// declare — a typo, or an option the protocol no longer has — is refused
// instead of silently ignored. The open record gets a 400 before the
// stream starts; a step record gets an in-stream error before it moves a
// body, and the session's lease is freed.
func TestSessionRefusesUndeclaredFields(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1, MaxLeases: 1}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()
	for _, open := range []string{
		`{"procs":1,"bodies":500,"adaptive":true}`,
		`{"procs":1,"bodies":500,"modle":"disk"}`,
	} {
		if code, body := postSession(t, url, open+"\n"); code != http.StatusBadRequest || !strings.Contains(body, "unknown field") {
			t.Errorf("open record %s: %d %s; want 400 naming the unknown field", open, code, body)
		}
	}
	for _, step := range []string{`{"drfit":true}`, `{"pos":[[0,0,0]]}`} {
		refuseStep(t, d, step, "unknown field")
	}
}

// TestSessionRefusesNegativeCollapse: a negative collapse would be
// ignored like no motion at all, so the step re-timed an unchanged
// tree; the step record is refused in-stream instead.
func TestSessionRefusesNegativeCollapse(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1, MaxLeases: 1}, drainTimeout: 10 * time.Second})
	refuseStep(t, d, `{"collapse":-0.05}`, "collapse -0.05 is negative")
}

// refuseStep streams an open record, an empty step, then step, and
// expects the daemon to answer the open record and the empty step, then
// an in-stream error containing want — and to release the session's
// lease.
func refuseStep(t *testing.T, d *daemon, step, want string) {
	t.Helper()
	code, body := postSession(t, d.srv.URL(), `{"procs":1,"bodies":500,"seed":1}`+"\n{}\n"+step+"\n{\"drift\":true}\n")
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if code != http.StatusOK || len(lines) != 3 {
		t.Fatalf("step record %s: %d, %d lines:\n%s\nwant opened, one step, one error", step, code, len(lines), body)
	}
	if !strings.Contains(lines[1], `"event":"step"`) || !strings.Contains(lines[2], `"event":"error"`) ||
		!strings.Contains(lines[2], want) {
		t.Errorf("step record %s answered:\n%s\nwant a step, then an error containing %q", step, body, want)
	}
	// The lease is released on handler exit; the one lease returns.
	deadline := time.Now().Add(5 * time.Second)
	for d.eng.Stats().LeasesActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("step record %s: the refused session kept its lease", step)
		}
		time.Sleep(time.Millisecond)
	}
}
