package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"partree/internal/cluster"
	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/obs/obstest"
	"partree/internal/wire"
)

// The files under testdata were captured from the parent of the commit
// that moved every counter into the component that counts it; the
// daemon's /metrics is held to them by family name, help, type, label
// names and series count (obstest.Surface).

// writeShardMap writes the two-shard uniform map (s0, s1) a -shard-map
// daemon loads.
func writeShardMap(t *testing.T) string {
	t.Helper()
	mapFile := filepath.Join(t.TempDir(), "map.json")
	doc, err := json.Marshal(cluster.UniformMap(1, cluster.Domain{Size: 4}, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapFile, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return mapFile
}

// TestMetricsSurface pins the page of a daemon nothing has been asked of
// yet, plain and as a cluster shard.
func TestMetricsSurface(t *testing.T) {
	plain := startDaemon(t, daemonConfig{})
	obstest.Golden(t, "testdata/partreed.metrics", obstest.Surface(metricsPage(t, plain.srv.URL())))

	shard := startDaemon(t, daemonConfig{shardMap: writeShardMap(t), shardID: "s1"})
	obstest.Golden(t, "testdata/partreed_shard.metrics", obstest.Surface(metricsPage(t, shard.srv.URL())))
}

// TestMetricsSurfaceExercised pins the page once every labeled family
// has its series: one build per algorithm, one whole native run, one
// acquire shed by admission control, one session opened, stepped and
// closed, and one refused.
func TestMetricsSurfaceExercised(t *testing.T) {
	d := startDaemon(t, daemonConfig{engine: engine.Options{MaxActive: 1, MaxLeases: 1}})
	url := d.srv.URL()
	build := func(spec map[string]any) {
		t.Helper()
		resp := postJSON(t, url+"/v1/build", spec)
		defer resp.Body.Close()
		if res := decodeResult(t, resp.Body); resp.StatusCode != http.StatusOK || res.Failed() {
			t.Fatalf("build %v: %d %s", spec, resp.StatusCode, res.FailureMessage())
		}
	}
	for _, alg := range core.AlgorithmNames() {
		build(map[string]any{"backend": "native", "algorithm": alg, "build_only": true, "procs": 2, "bodies": 512})
	}
	build(map[string]any{"backend": "native", "algorithm": "SPACE", "procs": 2, "bodies": 256, "steps": 1})

	// With the one slot held and its 4×MaxActive queue full, an acquire
	// is shed.
	release, err := d.eng.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const queue = 4
	waiters := make(chan error, queue)
	for i := 0; i < queue; i++ {
		go func() {
			done, err := d.eng.Admit(context.Background())
			if err == nil {
				done()
			}
			waiters <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.eng.Stats().Queued != queue {
		if time.Now().After(deadline) {
			t.Fatal("the queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := d.eng.Admit(context.Background()); err == nil {
		t.Fatal("an acquire past the queue was admitted")
	}
	release()
	for i := 0; i < queue; i++ {
		if err := <-waiters; err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	}

	c, _ := openSession(t, url, wire.SessionOpen{Procs: 2, Bodies: 512})
	if _, code := openSession(t, url, wire.SessionOpen{Procs: 1, Bodies: 64}); code != http.StatusServiceUnavailable {
		t.Fatalf("second session: status %d, want 503", code)
	}
	for _, s := range []wire.SessionStep{{Drift: true}, {Drift: true}, {Close: true}} {
		c.send(s)
		c.recv()
	}
	deadline = time.Now().Add(10 * time.Second)
	for d.eng.Stats().LeasesActive != 0 || d.rec.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the session never closed")
		}
		time.Sleep(time.Millisecond)
	}
	obstest.Golden(t, "testdata/partreed_exercised.metrics", obstest.Surface(metricsPage(t, url)))
}
