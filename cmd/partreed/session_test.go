package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/vec"
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
	if v := metricValue(t, pg, "partree_session_unplanned_rebuilds_total"); v != 0 {
		t.Errorf("session_unplanned_rebuilds_total = %v, want 0", v)
	}
	// The per-step histogram saw both serving modes.
	for _, mode := range []string{"update", "rebuild"} {
		name := fmt.Sprintf(`partree_session_step_seconds_count{mode=%q}`, mode)
		if v := metricValue(t, pg, name); v < 1 {
			t.Errorf("%s = %v, want >= 1", name, v)
		}
	}
}

// TestSessionAdaptiveStream opens an adaptive session end to end: every
// step must verify exactly like a static session's, and the
// measured-cost feedback loop must leave its partree_adapt_* footprint
// on /metrics — a controller constructed, a correction and a recut per
// step — without a trace recorder behind it: the stream's flight-recorder
// document carries no per-processor trace block. Counter assertions are
// lower bounds because the adapt totals are package-global across the
// test binary.
func TestSessionAdaptiveStream(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 2, Bodies: 3000, Seed: 7, Dt: 0.005, Check: true, Adaptive: true}
	c, _ := openSession(t, d.srv.URL(), open)

	const steps = 12
	for i := 0; i < steps; i++ {
		c.send(wire.SessionStep{Drift: i > 0})
		r := c.recv()
		if r.Event != "step" || r.Step.Step != i {
			t.Fatalf("step %d: got %+v", i, r)
		}
		if !r.Step.Verified {
			t.Fatalf("step %d: not verified", i)
		}
	}
	c.send(wire.SessionStep{Close: true})
	if r := c.recv(); r.Event != "closed" || r.Closed.Steps != steps {
		t.Fatalf("close ack = %+v, want closed with steps=%d", r, steps)
	}

	pg := metricsPage(t, d.srv.URL())
	if v := metricValue(t, pg, "partree_adapt_sessions_total"); v < 1 {
		t.Errorf("adapt_sessions_total = %v, want >= 1", v)
	}
	if v := metricValue(t, pg, "partree_adapt_repartitions_total"); v < steps {
		t.Errorf("adapt_repartitions_total = %v, want >= %d", v, steps)
	}
	if v := metricValue(t, pg, "partree_adapt_corrections_total"); v < steps-1 {
		t.Errorf("adapt_corrections_total = %v, want >= %d", v, steps-1)
	}
	if v := metricValue(t, pg, "partree_adapt_skew_before"); v < 1 {
		t.Errorf("adapt_skew_before gauge = %v, want a measured max/mean >= 1", v)
	}
	c.Close()
	if doc := fetchFlightDoc(t, d.srv.URL(), c.RequestID); strings.Contains(string(doc), `"trace`) {
		t.Errorf("adaptive session's request record carries a trace block:\n%s", doc)
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
		switch {
		case r.Event != "step":
			t.Fatalf("session step %d: %+v", i, r)
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
	if v := delta("partree_session_unplanned_rebuilds_total"); v != 0 {
		t.Errorf("%v unplanned rebuilds, want 0", v)
	}
	resident, cold := delta(`partree_build_leaves_total{alg="UPDATE"}`), delta(`partree_build_leaves_total{alg="LOCAL"}`)
	// A fresh build allocates what a one-shot does; the repairs, the rest.
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
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2, LeaseTick: 5 * time.Millisecond}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 1, Bodies: 500, Seed: 1, IdleTimeoutMs: 50}
	c, _ := openSession(t, d.srv.URL(), open)
	c.send(wire.SessionStep{})
	if r := c.recv(); r.Event != "step" {
		t.Fatalf("step: %+v", r)
	}
	// Go quiet. The janitor must evict and the server must say so
	// in-stream before closing.
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

// posOf renders a client's body set as the pos array of a step record:
// entry i is generator body i, whatever order the server keeps them in.
func posOf(b *phys.Bodies) [][3]float64 {
	pos := make([][3]float64, b.N())
	for i, p := range b.Pos {
		pos[i] = [3]float64{p.X, p.Y, p.Z}
	}
	return pos
}

// posClient drives a session the way loadgen's client-motion path does:
// the client holds the generated set, moves it, and streams full pos
// arrays, every step verified server-side.
type posClient struct {
	t    *testing.T
	c    *sessionClient
	mine *phys.Bodies
}

func newPosClient(t *testing.T, url string, open wire.SessionOpen) *posClient {
	c, _ := openSession(t, url, open)
	return &posClient{t: t, c: c, mine: phys.Generate(phys.ModelPlummer, open.Bodies, open.Seed)}
}

func (pc *posClient) step(what string, rebuild bool) wire.SessionStepResult {
	pc.t.Helper()
	pc.c.send(wire.SessionStep{Pos: posOf(pc.mine), Rebuild: rebuild})
	r := pc.c.recv()
	if r.Event != "step" || !r.Step.Verified {
		pc.t.Fatalf("%s: %+v", what, r)
	}
	return r.Step
}

// gentle takes five steps that move every body by 1 % of its distance
// from the origin, each in its own direction — of the cluster's median
// radius, for the halo: the outliers size the root cube, and UPDATE
// rescales every cell with it. A repair then moves a small fraction of
// the bodies, while a mis-mapped index hands nearly every body another
// body's position and moves almost all of them. A step the rebuild rule
// served fresh moves nothing and is let through.
func (pc *posClient) gentle(phase string) {
	pc.t.Helper()
	n := pc.mine.N()
	radii := make([]float64, n)
	for i, p := range pc.mine.Pos {
		radii[i] = p.Len()
	}
	sort.Float64s(radii)
	for k := 1; k <= 5; k++ {
		for i, p := range pc.mine.Pos {
			dir := vec.V3{X: float64((i+k)%3) - 1, Y: float64((i+2*k)%5) - 2, Z: float64(i%7) - 3.5}
			pc.mine.Pos[i] = p.MulAdd(0.01*min(p.Len(), radii[n/2])/dir.Len(), dir)
		}
		if r := pc.step(phase, false); !ruleRebuild(pc.t, r) && (r.Mode != "update" || r.Moved >= int64(n/10)) {
			pc.t.Fatalf("%s, step %d: mode %q moved %d of %d bodies under 1%% motion — pos entries are reaching the wrong bodies",
				phase, r.Step, r.Mode, r.Moved, n)
		}
	}
}

// TestSessionClientPosIsGeneratorIndexed: the server keeps its bodies in
// Morton order and re-sorts them on every fresh build after the first, so
// each pos entry must reach its body through the ID map — before and
// after a rebuild that follows a collapse.
func TestSessionClientPosIsGeneratorIndexed(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	open := wire.SessionOpen{Procs: 2, Bodies: 4000, Seed: 11, Model: "plummer", Check: true}
	pc := newPosClient(t, d.srv.URL(), open)

	if r := pc.step("step 0", false); r.Mode != "rebuild" || r.Reason != "first" {
		t.Fatalf("step 0: mode %q reason %q", r.Mode, r.Reason)
	}
	pc.gentle("before the rebuild")

	// The client collapses its cluster, far from the server's sorted
	// order, then asks for a rebuild: it re-sorts the server's bodies.
	for k := 0; k < 5; k++ {
		for i, p := range pc.mine.Pos {
			pc.mine.Pos[i] = p.Scale(1 / (1 + 0.4*p.Len()))
		}
		pc.step("collapse", false)
	}
	if r := pc.step("rebuild", true); r.Mode != "rebuild" || r.Reason != "requested" {
		t.Fatalf("rebuild:true step: mode %q reason %q", r.Mode, r.Reason)
	}
	pc.gentle("after the rebuild")
}

// TestSessionAdaptiveClientPosAcrossRebuild: an adaptive session re-sorts
// its bodies on a from-scratch step like a static one, so a client's pos
// array must keep reaching its bodies by generator index across a
// rebuild:true record.
func TestSessionAdaptiveClientPosAcrossRebuild(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	pc := newPosClient(t, d.srv.URL(), wire.SessionOpen{Procs: 4, Bodies: 4000, Seed: 5, Model: "plummer", Check: true, Adaptive: true})
	if r := pc.step("step 0", false); r.Mode != "rebuild" || r.Reason != "first" {
		t.Fatalf("step 0: mode %q reason %q", r.Mode, r.Reason)
	}
	pc.gentle("before the rebuild")
	if r := pc.step("rebuild", true); r.Mode != "rebuild" || r.Reason != "requested" {
		t.Fatalf("rebuild:true step: mode %q reason %q", r.Mode, r.Reason)
	}
	pc.gentle("after the rebuild")
}

// TestSessionRefusesUnbuildableExtent: a step whose positions are finite
// but whose bounding extent is not — or whose dt overflows them — used to
// reach the builder, which never returned and held its engine slot and
// the lease. The server must refuse it in-stream, at once.
func TestSessionRefusesUnbuildableExtent(t *testing.T) {
	const n = 5000
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1}, drainTimeout: 10 * time.Second})
	apart := posOf(phys.Generate(phys.ModelPlummer, n, 1))
	apart[7], apart[9] = [3]float64{1e308, 0, 0}, [3]float64{-1e308, 0, 0}
	for name, tc := range map[string]struct {
		dt   float64
		step wire.SessionStep
	}{
		"two bodies 2e308 apart": {0, wire.SessionStep{Pos: apart}},
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
	// Neither refused step kept the engine's one slot.
	c, _ := openSession(t, d.srv.URL(), wire.SessionOpen{Procs: 1, Bodies: n, Seed: 2})
	c.send(wire.SessionStep{})
	if r := c.recv(); r.Event != "step" {
		t.Fatalf("a session after the refusals: %+v", r)
	}
}
