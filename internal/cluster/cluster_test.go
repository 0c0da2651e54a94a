package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/reqtrace"
	"partree/internal/runner"
)

func startFixture(t *testing.T, o FixtureOptions) *Fixture {
	t.Helper()
	f, err := StartLocal(o)
	if err != nil {
		t.Fatalf("starting fixture: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

// postJSON posts a document and returns the status code and body.
func postJSON(t *testing.T, url string, in any) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

func buildSpec(n int) runner.Spec {
	return runner.Spec{Alg: core.PARTREE, Procs: 2, Bodies: n, Steps: 1, Seed: 7, Check: true}
}

// clusterBuild POSTs a build and fails the test on anything but a clean
// 200.
func clusterBuild(t *testing.T, f *Fixture, spec runner.Spec) ClusterResult {
	res, _ := clusterBuildRaw(t, f, spec)
	return res
}

func clusterBuildRaw(t *testing.T, f *Fixture, spec runner.Spec) (ClusterResult, []byte) {
	t.Helper()
	code, body := postJSON(t, f.RouterURL()+"/v1/build", spec)
	if code != http.StatusOK {
		t.Fatalf("POST /v1/build: %d: %s", code, body)
	}
	var res ClusterResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("decoding ClusterResult: %v", err)
	}
	return res, body
}

// TestClusterBuildConservation is the tier's acceptance test: a router
// and two shard daemons complete a verified build whose merged metrics
// satisfy the conservation audit — every body is built by exactly one
// shard, so ΣN == ΣBodiesBuilt == spec.Bodies.
func TestClusterBuildConservation(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})
	const n = 2000
	res, raw := clusterBuildRaw(t, f, buildSpec(n))
	if res.Failed() {
		t.Fatalf("cluster build failed: err=%q check=%q", res.Err, res.CheckFailure)
	}
	if len(res.Shards) != 2 {
		t.Fatalf("merged result has %d shard entries, want 2", len(res.Shards))
	}
	var sumN, slowest, slowestWhole int64
	for _, sr := range res.Shards {
		if sr.Failed() {
			t.Fatalf("shard %s failed: err=%q check=%q", sr.Shard, sr.Err, sr.CheckFailure)
		}
		// A seed the shard has not seen is regenerated and keyed before
		// the build; that time is reported beside wall_ns, not inside it.
		if sr.PrepNs <= 0 {
			t.Fatalf("shard %s reports prep_ns = %d on a fresh seed, want > 0", sr.Shard, sr.PrepNs)
		}
		if sr.WallNs > slowest {
			slowest = sr.WallNs
		}
		if whole := sr.PrepNs + sr.WallNs; whole > slowestWhole {
			slowestWhole = whole
		}
		if int64(sr.N) != sr.BodiesBuilt {
			t.Fatalf("shard %s owns %d bodies but built %d", sr.Shard, sr.N, sr.BodiesBuilt)
		}
		if sr.N == 0 {
			t.Fatalf("shard %s owns no bodies — uniform split should populate both halves", sr.Shard)
		}
		sumN += int64(sr.N)
	}
	if sumN != n || res.BodiesBuilt != n {
		t.Fatalf("conservation: ΣN=%d ΣBodiesBuilt=%d, want %d", sumN, res.BodiesBuilt, n)
	}
	if res.TreeNs <= 0 {
		t.Fatalf("merged TreeNs = %v, want > 0", res.TreeNs)
	}
	if res.WallNs != slowest {
		t.Fatalf("merged WallNs = %d, want the slowest shard's build wall %d (prep excluded)", res.WallNs, slowest)
	}
	// The router's own clock brackets the fan-out, so no shard can have
	// spent longer inside it than the router waited.
	if res.RouterWallNs < slowestWhole {
		t.Fatalf("router_wall_ns = %d, below a shard's prep_ns + wall_ns = %d", res.RouterWallNs, slowestWhole)
	}
	// The merged document must decode as a runner.Result too — the field
	// names are a compatibility contract for existing clients.
	var rr runner.Result
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("ClusterResult does not decode as runner.Result: %v", err)
	}
	if rr.TreeNs != res.TreeNs || rr.LocksTotal != res.LocksTotal || rr.Cells != res.Cells {
		t.Fatalf("runner.Result view (%v, %d, %d) != cluster view (%v, %d, %d)",
			rr.TreeNs, rr.LocksTotal, rr.Cells, res.TreeNs, res.LocksTotal, res.Cells)
	}
}

// TestClusterVersionMismatch pins the consistency token: any map-version
// disagreement must answer 409 — never a silent misroute on stale
// ranges.
func TestClusterVersionMismatch(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})

	// Shard level: a request stamped with a different version.
	code, body := postJSON(t, f.ShardURL(0)+"/v1/shard/build",
		ShardBuildRequest{MapVersion: 99, Spec: buildSpec(100)})
	if code != http.StatusConflict {
		t.Fatalf("stale build: %d (%s), want 409", code, body)
	}

	// Router level: a router whose map version moved on (addresses
	// unchanged) must surface the fleet's 409, not merge partial results.
	staleMap := f.Map
	staleMap.Version = 2
	rt, err := NewRouter(RouterOptions{Map: staleMap})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	rt.Mount(mux, reqtrace.NewRecorder())
	srv := httptest.NewServer(mux)
	defer srv.Close()
	code, body = postJSON(t, srv.URL+"/v1/build", buildSpec(100))
	if code != http.StatusConflict {
		t.Fatalf("version-skewed router build: %d (%s), want 409", code, body)
	}
	if !strings.Contains(string(body), "version mismatch") {
		t.Fatalf("409 body does not name the mismatch: %s", body)
	}
}

// TestClusterEmptyShard covers the degenerate maps: a shard whose key
// range holds no bodies must answer a clean zero-contribution result,
// and a single-shard cluster must behave like one partreed.
func TestClusterEmptyShard(t *testing.T) {
	// s0 owns only key range [0,1) — one corner cell of the domain.
	// The domain is oversized so no Plummer tail body clamps onto the
	// low corner, leaving the cell genuinely empty.
	f := startFixture(t, FixtureOptions{Cuts: []uint64{1}, Domain: Domain{Size: 64}})
	const n = 300
	res := clusterBuild(t, f, buildSpec(n))
	if res.Failed() {
		t.Fatalf("build with empty shard failed: %v %v", res.Err, res.CheckFailure)
	}
	if res.Shards[0].N != 0 || res.Shards[0].BodiesBuilt != 0 {
		t.Fatalf("corner shard should be empty, got N=%d built=%d", res.Shards[0].N, res.Shards[0].BodiesBuilt)
	}
	if res.Shards[1].N != n {
		t.Fatalf("s1 owns %d, want all %d", res.Shards[1].N, n)
	}
	if res.BodiesBuilt != n {
		t.Fatalf("conservation with empty shard: built %d, want %d", res.BodiesBuilt, n)
	}
}

func TestClusterSingleShard(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 1})
	const n = 400
	res := clusterBuild(t, f, buildSpec(n))
	if res.Failed() {
		t.Fatalf("single-shard build failed: %v %v", res.Err, res.CheckFailure)
	}
	if len(res.Shards) != 1 || res.Shards[0].N != n || res.BodiesBuilt != n {
		t.Fatalf("single-shard merge = %+v, want all %d bodies in one shard", res.Shards, n)
	}
}

// TestShardBuildIsTheRunnersBuild pins that a shard executes its subset
// through the runner's one build-repetition loop: with a single shard
// owning every body, the shard's answer and runner.Run of the same
// build-only spec agree on everything a build determines.
func TestShardBuildIsTheRunnersBuild(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 1})
	for _, spec := range []runner.Spec{
		// Lock counts depend on interleaving at p > 1; SPACE takes none.
		{Alg: core.LOCAL, Procs: 1},
		{Alg: core.SPACE, Procs: 2, Spatial: true},
	} {
		spec.Backend, spec.BuildOnly = runner.Native, true
		spec.Bodies, spec.Steps, spec.Seed, spec.Check = 3000, 2, 7, true
		want := runner.New(1).Run(context.Background(), spec)
		if want.Failed() {
			t.Fatalf("%v: runner build failed: %s", spec.Alg, want.FailureMessage())
		}
		res := clusterBuild(t, f, spec)
		if res.Failed() || len(res.Shards) != 1 {
			t.Fatalf("%v: shard build failed: %v %v (%d shards)", spec.Alg, res.Err, res.CheckFailure, len(res.Shards))
		}
		got := res.Shards[0]
		if got.Cells != want.Cells || got.Leaves != want.Leaves || got.MaxDepth != want.MaxDepth ||
			got.LocksTotal != want.LocksTotal || got.Retries != want.Retries ||
			got.BodiesBuilt != want.BodiesBuilt || got.BodiesBuilt != int64(spec.Bodies) {
			t.Errorf("%v: shard built cells=%d leaves=%d depth=%d locks=%d retries=%d bodies=%d,\nrunner built cells=%d leaves=%d depth=%d locks=%d retries=%d bodies=%d",
				spec.Alg, got.Cells, got.Leaves, got.MaxDepth, got.LocksTotal, got.Retries, got.BodiesBuilt,
				want.Cells, want.Leaves, want.MaxDepth, want.LocksTotal, want.Retries, want.BodiesBuilt)
		}
	}
}

// TestClusterBackpressure checks that engine admission composes across
// the tier: a draining shard's 503 becomes the cluster's 503, with the
// shard's reason surfaced.
func TestClusterBackpressure(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Engines[1].Drain(ctx); err != nil {
		t.Fatalf("draining shard 1 engine: %v", err)
	}
	code, body := postJSON(t, f.RouterURL()+"/v1/build", buildSpec(200))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("build against draining shard: %d (%s), want 503", code, body)
	}
	if !strings.Contains(string(body), engine.ErrDraining.Error()) {
		t.Fatalf("503 does not carry the engine's reason: %s", body)
	}
	if !strings.Contains(string(body), "s1") {
		t.Fatalf("503 does not name the rejecting shard: %s", body)
	}
}

// TestClusterRollupMetrics asserts the aggregated /metrics page: shard
// health gauges and the summed per-instance shard families.
func TestClusterRollupMetrics(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})
	const n = 800
	if res := clusterBuild(t, f, buildSpec(n)); res.Failed() {
		t.Fatalf("build failed: %v %v", res.Err, res.CheckFailure)
	}
	resp, err := http.Get(f.RouterURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	text := string(page)
	for _, want := range []string{
		`partree_cluster_shard_up{shard="s0"} 1`,
		`partree_cluster_shard_up{shard="s1"} 1`,
		fmt.Sprintf("partree_cluster_bodies_built_total %d", n),
		"partree_cluster_builds_total 2",
		"partree_router_builds_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rollup page missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("page:\n%s", text)
	}
}

// TestClusterServiceLimits: the cluster's two spec-carrying endpoints
// hold a spec to the service limits like a single partreed does — an
// over-limit bodies, procs, steps or leaf_cap answers 400 naming the
// limit, a field the spec does not declare 400 naming the field, and a
// backend other than native 400 rather than a native build, before any
// shard generates a body set — and a small spec sitting
// exactly on the procs, steps and leaf_cap limits builds.
func TestClusterServiceLimits(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})
	shardBuild := func(spec runner.Spec) any { return ShardBuildRequest{MapVersion: f.Map.Version, Spec: spec} }
	endpoints := []struct {
		url  string
		body func(runner.Spec) any
	}{
		{f.RouterURL() + "/v1/build", func(s runner.Spec) any { return s }},
		{f.ShardURL(0) + "/v1/shard/build", shardBuild},
	}
	maxProcs := runner.MaxServiceProcsPerCPU * runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		field string
		limit int
		over  runner.Spec
	}{
		{"bodies", runner.MaxServiceBodies, runner.Spec{Bodies: 2_000_000_000}}, // ≈ 176 GB if it were generated
		{"procs", maxProcs, runner.Spec{Bodies: 256, Procs: maxProcs + 1}},
		{"steps", runner.MaxServiceSteps, runner.Spec{Bodies: 256, Steps: runner.MaxServiceSteps + 1}},
		{"leaf_cap", runner.MaxServiceLeafCap, runner.Spec{Bodies: 64, LeafCap: 1 << 31}}, // 8 GiB for the first leaf
	} {
		for _, ep := range endpoints {
			if code, msg := postJSON(t, ep.url, ep.body(c.over)); code != http.StatusBadRequest || !strings.Contains(string(msg), strconv.Itoa(c.limit)) {
				t.Errorf("%s with %s over the limit: %d %s; want 400 naming %d", ep.url, c.field, code, msg, c.limit)
			}
		}
	}
	// A field the spec does not declare is refused, not ignored: a
	// misspelt bodies would be answered for the default 4096 bodies.
	undeclared := map[string]string{
		f.RouterURL() + "/v1/build":       `{"build_only":true,"bodeis":100000}`,
		f.ShardURL(0) + "/v1/shard/build": fmt.Sprintf(`{"map_version":%d,"spec":{"bodeis":100000}}`, f.Map.Version),
	}
	for url, doc := range undeclared {
		if code, msg := postJSON(t, url, json.RawMessage(doc)); code != http.StatusBadRequest || !strings.Contains(string(msg), `unknown field \"bodeis\"`) {
			t.Errorf("%s with %s: %d %s; want 400 naming the unknown field", url, doc, code, msg)
		}
	}
	for _, backend := range []runner.Backend{runner.Simulated, "quantum"} {
		for _, ep := range endpoints {
			spec := runner.Spec{Backend: backend, Platform: "origin", Alg: core.SPACE, Bodies: 256, Procs: 2, Steps: 1}
			if code, msg := postJSON(t, ep.url, ep.body(spec)); code != http.StatusBadRequest || !strings.Contains(string(msg), "native specs only") {
				t.Errorf("%s with backend %q: %d %s; want 400 naming the native backend", ep.url, backend, code, msg)
			}
		}
	}
	for i, ss := range f.Shards {
		ss.mu.Lock()
		if ss.memo != nil {
			t.Errorf("shard %d generated body set %+v for a refused request", i, ss.memoKey)
		}
		ss.mu.Unlock()
	}

	atLimit := runner.Spec{Alg: core.SPACE, Bodies: 256, Procs: maxProcs, Steps: runner.MaxServiceSteps, LeafCap: runner.MaxServiceLeafCap, Seed: 7}
	for _, ep := range endpoints {
		if code, msg := postJSON(t, ep.url, ep.body(atLimit)); code != http.StatusOK || strings.Contains(string(msg), `"error"`) {
			t.Errorf("%s at the limits: %d %s", ep.url, code, msg)
		}
	}
}

// TestClusterRequestKeepsOneID is the identity half of "one request, one
// trace": a build POSTed to the router under a traceparent answers with
// that trace-id as X-Request-Id, and the same ID retrieves the request
// from the router's flight recorder and from each shard's — the shard
// client forwards the router's ID, the shards' envelopes honour it. A
// router-side refusal names the ID in its error document.
func TestClusterRequestKeepsOneID(t *testing.T) {
	f := startFixture(t, FixtureOptions{Shards: 2})
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	post := func(doc string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, f.RouterURL()+"/v1/build", strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	spec, err := json.Marshal(buildSpec(2000))
	if err != nil {
		t.Fatal(err)
	}
	resp := post(string(spec))
	if got := resp.Header.Get("X-Request-Id"); resp.StatusCode != http.StatusOK || got != traceID {
		t.Fatalf("router build: status %d, X-Request-Id %q; want 200 under %q", resp.StatusCode, got, traceID)
	}
	io.Copy(io.Discard, resp.Body)

	entries := map[string]string{f.RouterURL(): "/v1/build"}
	for i := range f.Shards {
		entries[f.ShardURL(i)] = "/v1/shard/build"
	}
	for base, route := range entries {
		// An entry is published just after its response is written, so
		// the client can be a moment ahead of the recorder.
		var e reqtrace.Entry
		deadline := time.Now().Add(5 * time.Second)
		for getJSON(t, base+"/debug/requests/"+traceID, &e) != http.StatusOK {
			if time.Now().After(deadline) {
				t.Fatalf("%s never filed request %s", base, traceID)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if e.ID != traceID || e.Route != route || e.Status != http.StatusOK {
			t.Errorf("%s filed (%s, %s, %d) under %s, want route %s status 200", base, e.ID, e.Route, e.Status, traceID, route)
		}
	}

	resp = post(`{"bodies":"many"}`)
	var doc map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec: status %d (%v)", resp.StatusCode, err)
	}
	if doc["request_id"] != traceID || doc["error"] == "" {
		t.Errorf("router error document %v, want request_id %s and an error text", doc, traceID)
	}
}
