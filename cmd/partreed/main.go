// Command partreed is the long-lived build service: the engine's pooled
// builder sessions and the runner's memoizing caches behind a JSON HTTP
// API, beside the usual observability endpoints on one listener.
//
// Usage:
//
//	partreed [-addr 127.0.0.1:9732] [-max-sessions 256]
//	         [-drain-timeout 30s] [-shard-map file -shard id] [-v info]
//
// Everything else is fixed: GOMAXPROCS concurrent builds with 4× as
// many waiting, 32 pooled builder sessions, a 2-minute session idle
// timeout unless the open record sets idle_timeout_ms, a result memo of
// 4096 entries and a body memo of 16 MiB of body sets, and a flight
// recorder of the last 256 requests and the 16 slowest past 250 ms.
//
// Endpoints:
//
//	POST /v1/build   one runner.Spec (JSON) → its Result (JSON)
//	POST /v1/session one NDJSON stream: open record, then one record per
//	                 timestep (drift, collapse, rebuild or close) against
//	                 a resident tree (UPDATE per step, a SPACE rebuild
//	                 once repairs have slowed by what a rebuild costs);
//	                 results stream back in-line. 503 only before the
//	                 stream opens; a record naming a field it does not
//	                 declare is refused (400 for the open record, an
//	                 in-stream error for a step).
//	POST /v1/shard/build  cluster shard surface (with -shard-map and
//	                 -shard): this daemon owns one Morton range of a shard
//	                 map and builds that range's part of each spec's body
//	                 set for cmd/partree-router, keeping no bodies between
//	                 requests (see internal/cluster)
//	GET  /metrics    Prometheus exposition (engine pool, runner, builds,
//	                 partree_req_* request families)
//	GET  /healthz    liveness (+ready:false once draining)
//	GET  /debug/requests       flight recorder: last-N completed requests
//	GET  /debug/requests/slow  top-K slowest (threshold-gated)
//	GET  /debug/requests/<id>  one request's record (totals and timeline) by ID
//	     /debug/pprof, /debug/vars
//
// Every request is answered with an X-Request-Id header (the inbound
// traceparent trace-id when one was sent, minted otherwise); /v1/build
// additionally answers a Server-Timing header with the queue/build/
// moments/total breakdown, and every request logs one structured
// access-log line.
//
// Admission control is the engine's: at most GOMAXPROCS builds run, at
// most 4× as many more wait (honoring each request's context), and
// overload or drain answers 503. Specs are native only: any other
// backend is a 400. SIGINT/SIGTERM triggers a graceful
// drain — in-flight builds finish and are answered, new requests get
// 503 — bounded by -drain-timeout.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"partree/internal/cluster"
	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/reqtrace"
	"partree/internal/runner"
	"partree/internal/wire"
)

// daemonConfig sizes a daemon. The engine's options' zero fields select
// its own defaults; withDefaults fills the one knob no package owns.
type daemonConfig struct {
	engine       engine.Options // build slots and session-lease capacity
	drainTimeout time.Duration
	// shardMap/shardID, when both set, additionally mount the cluster
	// shard surface (/v1/shard/build): this daemon owns the named shard's
	// Morton range of the map file and serves shard-level builds through
	// the same engine — admission control composes per shard.
	shardMap string
	shardID  string
}

func (c daemonConfig) withDefaults() daemonConfig {
	if c.drainTimeout == 0 {
		c.drainTimeout = 30 * time.Second
	}
	return c
}

// daemon owns the engine, the runner executing through it, and the HTTP
// server. It is constructed directly by the e2e test, so everything the
// handlers touch lives here rather than in package-level state.
type daemon struct {
	cfg daemonConfig
	eng *engine.Engine
	r   *runner.Runner
	reg *obs.Registry
	srv *obs.Server
	rec *reqtrace.Recorder // the request flight recorder
	// shard is the cluster shard surface; nil unless -shard-map/-shard
	// were given.
	shard    *cluster.ShardServer
	draining atomic.Bool
}

func newDaemon(cfg daemonConfig) (*daemon, error) {
	cfg = cfg.withDefaults()
	eng := engine.New(cfg.engine)
	// The runner only memoizes over the engine, whose admission control
	// is the daemon's single source of backpressure: overflow surfaces as
	// ErrQueueFull → 503 instead of waiting invisibly.
	r := runner.NewWithConfig(runner.Config{Engine: eng})
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	if err := r.RegisterObs(reg); err != nil {
		return nil, err
	}
	d := &daemon{cfg: cfg, eng: eng, r: r, reg: reg, rec: reqtrace.NewRecorder()}
	if err := d.rec.RegisterObs(reg); err != nil {
		return nil, err
	}
	if cfg.shardMap != "" || cfg.shardID != "" {
		if cfg.shardMap == "" || cfg.shardID == "" {
			return nil, fmt.Errorf("-shard-map and -shard must be given together")
		}
		m, err := cluster.ReadMap(cfg.shardMap)
		if err != nil {
			return nil, err
		}
		idx := m.ShardByID(cfg.shardID)
		if idx < 0 {
			return nil, fmt.Errorf("shard %q is not in map %s", cfg.shardID, cfg.shardMap)
		}
		ss, err := cluster.NewShardServer(m, idx, eng)
		if err != nil {
			return nil, err
		}
		if err := ss.RegisterObs(reg); err != nil {
			return nil, err
		}
		d.shard = ss
	}
	return d, nil
}

// start binds addr and serves until drain/close. ":0" works for tests.
func (d *daemon) start(addr string) error {
	srv, err := obs.ServeWith(addr, "partreed", d.reg,
		func() bool { return !d.draining.Load() }, d.mount)
	if err != nil {
		return err
	}
	d.srv = srv
	return nil
}

func (d *daemon) mount(mux *http.ServeMux) {
	d.rec.Handle(mux, http.MethodPost, "/v1/build", "POST a runner.Spec JSON document", d.handleBuild)
	d.rec.Handle(mux, http.MethodPost, "/v1/session", "POST an NDJSON session stream", d.handleSession)
	if d.shard != nil {
		d.shard.Mount(mux, d.rec)
	}
	d.rec.Mount(mux)
}

// drain stops admitting work, waits out in-flight builds (bounded by the
// configured drain timeout), then closes the listener. Idempotent.
func (d *daemon) drain(ctx context.Context) error {
	d.draining.Store(true)
	ctx, cancel := context.WithTimeout(ctx, d.cfg.drainTimeout)
	defer cancel()
	err := d.eng.Drain(ctx)
	if d.srv != nil {
		// Graceful: handlers whose builds just finished still get to
		// write their responses.
		d.srv.Shutdown(ctx)
	}
	return err
}

func (d *daemon) handleBuild(w http.ResponseWriter, req *http.Request) {
	if d.draining.Load() {
		reqtrace.WriteError(w, http.StatusServiceUnavailable, engine.ErrDraining.Error())
		return
	}
	rq := reqtrace.FromContext(req.Context())
	rstart := time.Now()
	spec, err := runner.DecodeServiceSpec(req.Body)
	rq.Since(reqtrace.Read, rstart)
	if err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	res := d.r.Run(req.Context(), spec)
	if engine.Rejected(res.Err) {
		reqtrace.WriteError(w, http.StatusServiceUnavailable, res.Err)
		return
	}
	// The Server-Timing header carries the request's station breakdown
	// (headers must precede the body, so this is the pre-write view;
	// the flight-recorder entry additionally covers the write).
	w.Header().Set("Server-Timing", wire.ServerTiming(wire.Timing(rq.Totals())))
	// Executed specs answer 200 with the Result; failures (timeout,
	// check violation) travel in-band in its error fields, as in the
	// CLI's -json output.
	w.Header().Set("Content-Type", "application/json")
	wstart := time.Now()
	json.NewEncoder(w).Encode(res)
	rq.Since(reqtrace.Write, wstart)
	slog.Debug("build served", "spec", spec.String(), "failed", res.Failed())
}

// bindFlags registers partreed's flags on fs: the daemon's settings in
// cfg, and the listen address and log level it returns.
func bindFlags(fs *flag.FlagSet, cfg *daemonConfig) (addr, level *string) {
	addr = fs.String("addr", "127.0.0.1:9732", "listen address for the API and observability endpoints")
	fs.IntVar(&cfg.engine.MaxLeases, "max-sessions", 256, "streaming session leases held open at once")
	fs.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long a drain waits for in-flight builds")
	fs.StringVar(&cfg.shardMap, "shard-map", "", "cluster shard map file; mounts /v1/shard/build (requires -shard)")
	fs.StringVar(&cfg.shardID, "shard", "", "this daemon's shard ID within -shard-map")
	level = fs.String("v", "info", "log level: debug, info, warn, error")
	return addr, level
}

func main() {
	var cfg daemonConfig
	addr, level := bindFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := obs.SetLogger(os.Stderr, "partreed", *level); err != nil {
		fmt.Fprintln(os.Stderr, "partreed:", err)
		os.Exit(2)
	}

	d, err := newDaemon(cfg)
	if err != nil {
		slog.Error("building daemon", "err", err)
		os.Exit(1)
	}
	if err := d.start(*addr); err != nil {
		slog.Error("starting server", "err", err)
		os.Exit(1)
	}
	slog.Info("serving", "addr", d.srv.Addr(), "url", d.srv.URL(),
		"max_active", d.eng.Options().MaxActive)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	slog.Info("draining", "signal", s.String(), "timeout", d.cfg.drainTimeout)
	if err := d.drain(context.Background()); err != nil {
		slog.Error("drain incomplete", "err", err)
		os.Exit(1)
	}
	slog.Info("drained; bye")
}
