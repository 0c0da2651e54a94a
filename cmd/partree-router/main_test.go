package main

import (
	"io"
	"net/http"
	"testing"

	"partree/internal/cluster"
	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/obs/obstest"
	"partree/internal/reqtrace"
)

// startShard serves one shard of m the way `partreed -shard-map -shard`
// does, as far as the router can see: the shard routes and a /metrics
// page carrying the shard, engine and build families the rollup sums.
func startShard(t *testing.T, m cluster.Map, i int) *obs.Server {
	t.Helper()
	eng := engine.New(engine.Options{})
	ss, err := cluster.NewShardServer(m.WithoutAddrs(), i, eng)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	for _, err := range []error{ss.RegisterObs(reg), eng.RegisterObs(reg), core.RegisterObs(reg)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	srv, err := obs.ServeWith("127.0.0.1:0", "partreed", reg,
		func() bool { return true }, func(mux *http.ServeMux) { ss.Mount(mux, reqtrace.NewRecorder()) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestMetricsSurface holds the router's /metrics — its own counters and
// the partree_cluster_* rollup of two live shards — to the surface
// captured from the parent of the commit that moved every counter into
// the component that counts it (testdata/router.metrics).
func TestMetricsSurface(t *testing.T) {
	m := cluster.UniformMap(1, cluster.Domain{Size: 4}, 2)
	for i := range m.Shards {
		m.Shards[i].Addr = startShard(t, m, i).Addr()
	}
	srv, err := serve("127.0.0.1:0", cluster.RouterOptions{Map: m})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s, %v", resp.Status, err)
	}
	obstest.Golden(t, "testdata/router.metrics", obstest.Surface(string(page)))
}
