package cluster

import (
	"fmt"
	"net/http"
	"runtime"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/partition"
	"partree/internal/reqtrace"
)

// Fixture is a whole cluster inside one process: N shard servers and a
// router, each on its own loopback listener, wired together by a real
// addressed map. The e2e tests run against it; scripts/cluster_smoke.sh
// runs the same topology with real partreed and partree-router
// processes.
//
// Caveat: the process-global build counters (partree_build_*) are
// shared by every in-process shard, so each shard's /metrics reports
// process totals and the rollup's sums over those families multiply-
// count. Assertions against a Fixture should use the per-instance
// partree_shard_* families and merged ClusterResults; the process-
// global rollups are meaningful only for the real multi-process
// deployment.
type Fixture struct {
	Map     Map
	Shards  []*ShardServer
	Engines []*engine.Engine
	Router  *Router

	shardSrvs []*obs.Server
	routerSrv *obs.Server
}

// FixtureOptions size an in-process cluster.
type FixtureOptions struct {
	Shards int
	// Version stamps the map (default 1).
	Version int
	// Domain is the shared keying cube (default centered 4-cube, which
	// contains the standard scenario models at their default scale).
	Domain Domain
	// Engine configures each shard's engine; the zero value uses the
	// engine defaults (MaxActive = GOMAXPROCS).
	Engine engine.Options
	// Client tunes the router's shard clients.
	Client ClientOptions
	// Cuts, when non-nil, overrides the uniform split: len(Cuts)+1
	// shards with boundaries at the given keys (each cut in (0,
	// KeySpace), strictly increasing). Edge-case tests use it to build
	// deliberately skewed maps (e.g. a near-empty first shard).
	Cuts []uint64
}

// StartLocal brings up the fixture: shards first (each obtains its
// loopback address by binding :0), then the router over the addressed
// map. The shards themselves run on addr-less map copies — a shard
// never needs to know where its peers live.
func StartLocal(o FixtureOptions) (*Fixture, error) {
	if o.Shards <= 0 {
		o.Shards = 2
	}
	if o.Version == 0 {
		o.Version = 1
	}
	if o.Domain.Size == 0 {
		o.Domain = Domain{Size: 4}
	}
	if o.Engine.MaxActive == 0 {
		o.Engine.MaxActive = runtime.GOMAXPROCS(0)
	}
	var m Map
	if o.Cuts != nil {
		m = Map{Version: o.Version, Domain: o.Domain}
		bounds := append(append([]uint64{0}, o.Cuts...), partition.KeySpace)
		for i := 0; i+1 < len(bounds); i++ {
			m.Shards = append(m.Shards, Shard{ID: fmt.Sprintf("s%d", i), Lo: bounds[i], Hi: bounds[i+1]})
		}
		o.Shards = len(m.Shards)
		if err := m.Validate(); err != nil {
			return nil, err
		}
	} else {
		m = UniformMap(o.Version, o.Domain, o.Shards)
	}
	f := &Fixture{}

	fail := func(err error) (*Fixture, error) {
		f.Close()
		return nil, err
	}
	for i := 0; i < o.Shards; i++ {
		eng := engine.New(o.Engine)
		ss, err := NewShardServer(m.WithoutAddrs(), i, eng)
		if err != nil {
			return fail(err)
		}
		reg := obs.NewRegistry()
		if err := ss.RegisterObs(reg); err != nil {
			return fail(err)
		}
		if err := eng.RegisterObs(reg); err != nil {
			return fail(err)
		}
		if err := core.RegisterObs(reg); err != nil {
			return fail(err)
		}
		srv, err := obs.ServeWith("127.0.0.1:0", "partree-shard", reg,
			func() bool { return true }, mountWithRecorder(ss.Mount))
		if err != nil {
			return fail(fmt.Errorf("starting shard %d: %w", i, err))
		}
		m.Shards[i].Addr = srv.Addr()
		f.Shards = append(f.Shards, ss)
		f.Engines = append(f.Engines, eng)
		f.shardSrvs = append(f.shardSrvs, srv)
	}

	rt, err := NewRouter(RouterOptions{Map: m, Client: o.Client})
	if err != nil {
		return fail(err)
	}
	reg := obs.NewRegistry()
	if err := rt.RegisterObs(reg); err != nil {
		return fail(err)
	}
	srv, err := obs.ServeWith("127.0.0.1:0", "partree-router", reg,
		func() bool { return true }, mountWithRecorder(rt.Mount))
	if err != nil {
		return fail(fmt.Errorf("starting router: %w", err))
	}
	f.Map = m
	f.Router = rt
	f.routerSrv = srv
	return f, nil
}

// mountWithRecorder mounts a process's routes the way its binary does:
// behind its own flight recorder, served beside them on /debug/requests.
func mountWithRecorder(mount func(*http.ServeMux, *reqtrace.Recorder)) func(*http.ServeMux) {
	return func(mux *http.ServeMux) {
		rec := reqtrace.NewRecorder()
		mount(mux, rec)
		rec.Mount(mux)
	}
}

// RouterURL returns the router's base URL.
func (f *Fixture) RouterURL() string { return f.routerSrv.URL() }

// ShardURL returns shard i's base URL.
func (f *Fixture) ShardURL(i int) string { return f.shardSrvs[i].URL() }

// Close tears the fixture down (idempotent; safe on a half-built
// fixture).
func (f *Fixture) Close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
		f.routerSrv = nil
	}
	for _, s := range f.shardSrvs {
		s.Close()
	}
	f.shardSrvs = nil
}
