// Command partree-router fronts a fleet of partreed shard daemons: it
// loads the addressed Morton-order shard map, fans /v1/build out to every
// shard's /v1/shard/build, merges the per-shard results under the
// tree-metric conservation laws, and serves the aggregated
// partree_cluster_* metrics rolled up from each shard's /metrics page.
// The shards hold no bodies between requests: each build regenerates
// the spec's body set on every shard, and each shard builds the part its
// Morton range owns.
//
// Usage:
//
//	partree-router -map cluster.json [-addr 127.0.0.1:9733]
//	               [-shard-timeout 30s] [-shard-retries 1] [-v info]
//
// -map, an addressed map file (see internal/cluster), is the
// deployment's source of truth and is required. The shard daemons must
// run the same map version — the router surfaces their 409s verbatim.
//
// Endpoints:
//
//	POST /v1/build  one runner.Spec (JSON) → merged ClusterResult (JSON)
//	GET  /v1/map    the addressed shard map
//	GET  /metrics   router counters + partree_cluster_* fleet rollup
//	                + the partree_req_* request families
//	GET  /healthz   liveness
//	GET  /debug/requests[/slow|/<id>]  flight recorder, as on partreed
//
// Every request gets an X-Request-Id (the inbound traceparent trace-id,
// minted otherwise) that the router forwards on its shard calls, so the
// same ID retrieves the request here and on every shard it reached.
//
// A shard's admission 503 becomes the cluster's 503 (the slowest
// rejecting shard's reason); a dead shard turns its
// partree_cluster_shard_up gauge to 0 and fails builds with 502.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partree/internal/cluster"
	"partree/internal/obs"
	"partree/internal/reqtrace"
)

// serve builds the router over o.Map and serves its API, its own counters
// and the fleet rollup on addr.
func serve(addr string, o cluster.RouterOptions) (*obs.Server, error) {
	rt, err := cluster.NewRouter(o)
	if err != nil {
		return nil, err
	}
	// The router's requests go through the same envelope and flight
	// recorder as a shard's, at reqtrace's fixed sizes.
	rec := reqtrace.NewRecorder()
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	if err := rt.RegisterObs(reg); err != nil {
		return nil, err
	}
	if err := rec.RegisterObs(reg); err != nil {
		return nil, err
	}
	return obs.ServeWith(addr, "partree-router", reg, func() bool { return true },
		func(mux *http.ServeMux) {
			rt.Mount(mux, rec)
			rec.Mount(mux)
		})
}

func main() {
	var o cluster.RouterOptions
	addr := flag.String("addr", "127.0.0.1:9733", "listen address for the API and observability endpoints")
	mapFile := flag.String("map", "", "addressed shard map file (JSON; see internal/cluster); required")
	flag.DurationVar(&o.Client.Timeout, "shard-timeout", 30*time.Second, "per-attempt timeout for shard calls")
	flag.IntVar(&o.Client.Retries, "shard-retries", 1, "transport-failure retries per shard call (HTTP errors are never retried)")
	level := flag.String("v", "info", "log level: debug, info, warn, error")
	flag.Parse()
	if err := obs.SetLogger(os.Stderr, "partree-router", *level); err != nil {
		fmt.Fprintln(os.Stderr, "partree-router:", err)
		os.Exit(2)
	}

	if *mapFile == "" {
		slog.Error("-map is required")
		os.Exit(2)
	}
	var err error
	if o.Map, err = cluster.ReadMap(*mapFile); err != nil {
		slog.Error("reading shard map", "err", err)
		os.Exit(2)
	}
	srv, err := serve(*addr, o)
	if err != nil {
		slog.Error("starting router", "err", err)
		os.Exit(1)
	}
	slog.Info("serving", "addr", srv.Addr(), "url", srv.URL(),
		"map_version", o.Map.Version, "shards", len(o.Map.Shards))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	slog.Info("shutting down", "signal", s.String())
	srv.Close()
}
