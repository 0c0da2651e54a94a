package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"partree/internal/cluster"
	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/reqtrace"
	"partree/internal/wire"
)

// fetchFlightEntry polls /debug/requests/<id> until the request's entry
// is published (Finish runs just after the handler's response, so the
// client can observe the response before the recorder does).
func fetchFlightEntry(t *testing.T, url, id string) reqtrace.Entry {
	t.Helper()
	var e reqtrace.Entry
	body := fetchFlightDoc(t, url, id)
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("parsing flight entry: %v\n%s", err, body)
	}
	return e
}

// fetchFlightDoc is the /debug/requests/<id> document as served.
func fetchFlightDoc(t *testing.T, url, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/debug/requests/" + id)
		if err != nil {
			t.Fatalf("GET /debug/requests/%s: %v", id, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("request %s never appeared in the flight recorder (last: %d %s)",
				id, resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBuildRequestObservability is the request-record acceptance path:
// POST a build with a W3C traceparent, and the response's X-Request-Id
// keys the full request record out of /debug/requests — with the queue
// and build totals summing to within the recorded duration, the phase
// totals within it, a Server-Timing header whose build and moments
// values are the entry's totals, and the partree_req_* families moved.
func TestBuildRequestObservability(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"

	buf, _ := json.Marshal(buildSpec(1777, 2))
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/build", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/build: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: status %d\n%s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != traceID {
		t.Fatalf("X-Request-Id = %q, want the traceparent trace-id %q", got, traceID)
	}
	st := resp.Header.Get("Server-Timing")
	for _, station := range []string{"queue;dur=", "build;dur=", "moments;dur=", "total;dur="} {
		if !strings.Contains(st, station) {
			t.Errorf("Server-Timing %q missing %q", st, station)
		}
	}

	e := fetchFlightEntry(t, url, traceID)
	if e.ID != traceID || e.Route != "/v1/build" || e.Status != http.StatusOK {
		t.Fatalf("flight entry = %+v", e)
	}
	if e.Bytes != int64(len(body)) {
		t.Errorf("entry bytes = %d, want the %d-byte response", e.Bytes, len(body))
	}
	if e.DurNs <= 0 {
		t.Fatalf("entry dur_ns = %d", e.DurNs)
	}
	// The acceptance inequality: queue wait plus build wall time are
	// disjoint stations inside the request, so they sum to within the
	// recorded total.
	tot := e.Totals
	if tot[reqtrace.Queue]+tot[reqtrace.Build] > e.DurNs {
		t.Errorf("queue(%d) + build(%d) exceed the recorded total %d ns",
			tot[reqtrace.Queue], tot[reqtrace.Build], e.DurNs)
	}
	// The core phases nest inside the build wall time (the spec ran 2
	// in-process steps, all stamped onto this request).
	phases := tot[reqtrace.Bounds] + tot[reqtrace.Insert] + tot[reqtrace.Moments]
	if phases <= 0 || phases > e.DurNs {
		t.Errorf("phase totals %d ns outside (0, dur=%d]", phases, e.DurNs)
	}
	var hasBuild bool
	for _, s := range e.Spans {
		if s.Name == "build" {
			hasBuild = true
		}
	}
	if !hasBuild {
		t.Errorf("entry spans %v carry no build wall span", e.Spans)
	}
	// The header was rendered from the same record before the write: its
	// build and moments values are the entry's totals.
	timing := wire.ParseServerTiming(st)
	ms := func(ns int64) float64 { return reqtrace.Ms(time.Duration(ns)) }
	if got, want := timing["build"], ms(tot[reqtrace.Bounds]+tot[reqtrace.Insert]); got != want {
		t.Errorf("Server-Timing build = %v ms, entry's bounds + insert = %v ms", got, want)
	}
	if got, want := timing["moments"], ms(tot[reqtrace.Moments]); got != want {
		t.Errorf("Server-Timing moments = %v ms, entry's moments = %v ms", got, want)
	}

	// The entry is also in the ring listing, and the metric families
	// observed it.
	code, _, page := httpGet(t, url+"/debug/requests")
	if code != http.StatusOK || !strings.Contains(string(page), traceID) {
		t.Errorf("/debug/requests (status %d) does not list %s", code, traceID)
	}
	code, _, page = httpGet(t, url+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	pg := string(page)
	if v := metricValue(t, pg, "partree_req_duration_seconds_count"); v < 1 {
		t.Errorf("partree_req_duration_seconds_count = %v, want >= 1", v)
	}
	if v := metricValue(t, pg, "partree_req_queue_wait_seconds_count"); v < 1 {
		t.Errorf("partree_req_queue_wait_seconds_count = %v, want >= 1", v)
	}
	if v := metricValue(t, pg, "partree_req_in_flight"); v != 0 {
		t.Errorf("partree_req_in_flight = %v at idle, want 0", v)
	}
	if !strings.Contains(pg, `partree_req_duration_max_seconds{request_id="`) {
		t.Errorf("/metrics carries no request-ID exemplar series")
	}
}

func httpGet(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestRequestIDMintedAndInErrors pins the no-traceparent path (the
// daemon mints a well-formed ID) and the error contract (the JSON error
// document names the request ID the header assigned).
func TestRequestIDMintedAndInErrors(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()

	resp := postJSON(t, url+"/v1/build", buildSpec(1024, 1))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if _, ok := reqtrace.ParseTraceparent("00-" + minted + "-00f067aa0ba902b7-01"); !ok {
		t.Fatalf("minted X-Request-Id %q is not a valid trace-id", minted)
	}

	// A method error still carries the ID in header and body.
	resp, err := http.Get(url + "/v1/build")
	if err != nil {
		t.Fatalf("GET /v1/build: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/build: status %d, want 405", resp.StatusCode)
	}
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding error document: %v", err)
	}
	id := resp.Header.Get("X-Request-Id")
	if doc["request_id"] == "" || doc["request_id"] != id {
		t.Errorf("error document request_id = %q, header = %q; want them equal and set", doc["request_id"], id)
	}
	if doc["error"] == "" {
		t.Errorf("error document lost its message: %v", doc)
	}
}

// TestWrongMethodOnEveryRoute walks every API route the two serving
// binaries mount — a shard daemon's three, and the two Router.Mount gives
// partree-router — with the method each does not take: the one check in
// the envelope answers 405 with Allow (RFC 9110 §15.5.6) and the error
// document naming the request ID the header assigned. The routes no
// client sent, and which are gone, answer 404 to the method they took.
func TestWrongMethodOnEveryRoute(t *testing.T) {
	d := startDaemon(t, daemonConfig{shardMap: writeShardMap(t), shardID: "s0"})
	m := cluster.UniformMap(1, cluster.Domain{Size: 4}, 2)
	for i := range m.Shards {
		m.Shards[i].Addr = d.srv.Addr() // never called: no request gets past the envelope
	}
	rt, err := cluster.NewRouter(cluster.RouterOptions{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	router, err := obs.ServeWith("127.0.0.1:0", "partree-router", obs.NewRegistry(), nil,
		func(mux *http.ServeMux) { rt.Mount(mux, reqtrace.NewRecorder()) })
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	for _, tc := range []struct{ base, route, allow string }{
		{d.srv.URL(), "/v1/build", http.MethodPost},
		{d.srv.URL(), "/v1/session", http.MethodPost},
		{d.srv.URL(), "/v1/shard/build", http.MethodPost},
		{router.URL(), "/v1/build", http.MethodPost},
		{router.URL(), "/v1/map", http.MethodGet},
	} {
		wrong := http.MethodGet
		if tc.allow == http.MethodGet {
			wrong = http.MethodPost
		}
		req, _ := http.NewRequest(wrong, tc.base+tc.route, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", wrong, tc.route, err)
		}
		var doc map[string]string
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || err != nil {
			t.Errorf("%s %s: status %d (%v), want a 405 error document", wrong, tc.route, resp.StatusCode, err)
			continue
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow = %q, want %q", wrong, tc.route, got, tc.allow)
		}
		if id := resp.Header.Get("X-Request-Id"); id == "" || doc["request_id"] != id || doc["error"] == "" {
			t.Errorf("%s %s: document %v under X-Request-Id %q; want its request_id equal and an error text", wrong, tc.route, doc, id)
		}
	}
	for _, tc := range []struct{ base, method, route string }{
		{d.srv.URL(), http.MethodPost, "/v1/sweep"},
		{router.URL(), http.MethodPost, "/v1/sweep"},
		{d.srv.URL(), http.MethodGet, "/v1/shard"},
	} {
		req, _ := http.NewRequest(tc.method, tc.base+tc.route, strings.NewReader("[]"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.route, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s%s: status %d, want 404 (the route is gone)", tc.method, tc.base, tc.route, resp.StatusCode)
		}
	}
}

// TestSessionRequestObservability runs a streaming session and checks
// the in-stream per-step timing records, then the whole stream's single
// flight-recorder entry: the steps' queue, build and moments values sum
// to its totals.
func TestSessionRequestObservability(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 2}, drainTimeout: 10 * time.Second})
	url := d.srv.URL()
	const traceID = "00f067aa0ba902b74bf92f3577b34da6"
	const procs, steps = 2, 3

	sess, err := wire.OpenSession(context.Background(), url, "00-"+traceID+"-00f067aa0ba902b7-01",
		wire.SessionOpen{Procs: procs, Bodies: 1500, Seed: 11})
	if err != nil {
		t.Fatalf("POST /v1/session: %v", err)
	}
	defer sess.Close()
	if sess.Status != http.StatusOK {
		t.Fatalf("session: status %d", sess.Status)
	}
	if got := sess.RequestID; got != traceID {
		t.Fatalf("X-Request-Id = %q, want %q", got, traceID)
	}

	rec, err := sess.Recv()
	if err != nil || rec.Event != "opened" {
		t.Fatalf("first record = %+v (%v), want opened", rec, err)
	}
	var sum wire.StepTiming
	for i := 0; i < steps; i++ {
		if err := sess.Send(wire.SessionStep{Drift: i > 0}); err != nil {
			t.Fatalf("sending step %d: %v", i, err)
		}
		if rec, err = sess.Recv(); err != nil || rec.Event != "step" {
			t.Fatalf("step %d record = %+v (%v)", i, rec, err)
		}
		// Every step record carries the in-stream breakdown — the NDJSON
		// equivalent of /v1/build's Server-Timing header.
		if rec.Step.Timing == nil {
			t.Fatalf("step %d carries no timing record", i)
		}
		if rec.Step.Timing.TotalMs <= 0 || rec.Step.Timing.BuildMs <= 0 {
			t.Errorf("step %d timing = %+v, want positive build and total", i, rec.Step.Timing)
		}
		if rec.Step.Timing.BuildMs+rec.Step.Timing.MomentsMs > rec.Step.Timing.TotalMs+1 {
			t.Errorf("step %d: build(%g)+moments(%g) ms exceed total %g ms", i,
				rec.Step.Timing.BuildMs, rec.Step.Timing.MomentsMs, rec.Step.Timing.TotalMs)
		}
		sum.QueueMs += rec.Step.Timing.QueueMs
		sum.BuildMs += rec.Step.Timing.BuildMs
		sum.MomentsMs += rec.Step.Timing.MomentsMs
	}
	sess.Send(wire.SessionStep{Close: true})
	if rec, err = sess.Recv(); err != nil || rec.Event != "closed" || rec.Closed.Steps != steps {
		t.Fatalf("close record = %+v (%v)", rec, err)
	}
	sess.Close()

	e := fetchFlightEntry(t, url, traceID)
	if e.Route != "/v1/session" || e.Status != http.StatusOK {
		t.Fatalf("flight entry = %+v", e)
	}
	tot := e.Totals
	if tot[reqtrace.Queue]+tot[reqtrace.Build] > e.DurNs {
		t.Errorf("queue(%d) + build(%d) exceed total %d ns", tot[reqtrace.Queue], tot[reqtrace.Build], e.DurNs)
	}
	var builds int
	for _, s := range e.Spans {
		if s.Name == "build" {
			builds++
		}
	}
	if builds != steps {
		t.Errorf("%d build spans recorded, want one per step (%d)", builds, steps)
	}
	if tot[reqtrace.Bounds]+tot[reqtrace.Insert] <= 0 {
		t.Errorf("session entry accumulated no build phases: %v", tot)
	}
	// Each step's values are its share of these totals, truncated to the
	// microsecond: the sums fall short by under 1 µs a step.
	const slackMs = steps*1e-3 + 1e-9
	for _, c := range []struct {
		name string
		sum  float64
		ns   int64
	}{
		{"queue", sum.QueueMs, tot[reqtrace.Queue]},
		{"build", sum.BuildMs, tot[reqtrace.Bounds] + tot[reqtrace.Insert]},
		{"moments", sum.MomentsMs, tot[reqtrace.Moments]},
	} {
		if want := float64(c.ns) / 1e6; c.sum > want+1e-9 || c.sum < want-slackMs {
			t.Errorf("steps' %s values sum to %v ms, entry's total is %v ms", c.name, c.sum, want)
		}
	}
}
