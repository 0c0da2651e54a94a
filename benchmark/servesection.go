package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/phys"
	"partree/internal/runner"
)

// serveSection owns the spawned fleet and everything the serving loops
// observe. The untraced pass runs the workload's own traffic kind; the
// traced pass runs all three kinds, because it reports every layer.
type serveSection struct {
	w     workload
	all   bool
	nproc int
	seed  int64
	fl    *fleet
	hc    *http.Client
	tks   []*track

	streams []*sessionStream
	openMs  []float64

	builds       []buildObs
	buildElapsed time.Duration
	runnerDelta  map[string]float64 // /metrics deltas over the open loop
	rejected     int

	steps          []stepObs
	sessionElapsed time.Duration
	fallbacks      int

	clusterSent      int
	clusterReqs      []clusterObs
	clusterElapsed   time.Duration
	controlMs, hopMs []float64

	probe layerProbe

	attempted int
	failed    []string
}

func (s *serveSection) fail(format string, args ...any) {
	s.failed = append(s.failed, fmt.Sprintf(format, args...))
}

// track returns load goroutine i's span track (nil when untraced).
func (s *serveSection) track(i int) *track { return s.tks[i] }

// runs reports whether this pass drives the given traffic kind.
func (s *serveSection) runs(k serveKind) bool { return s.all || s.w.kind == k }

// bodiesFor is the body count a traffic kind runs at on this workload.
func (s *serveSection) bodiesFor(k serveKind) int {
	if s.w.kind == k {
		return s.w.srvN
	}
	return min(s.w.srvN, tracedSrvN)
}

// newServeSection starts the servers and brings them to the state the
// first useful request needs: healthy, hot specs cached, sessions open.
func newServeSection(ctx context.Context, w workload, seed int64, nproc int, all bool, dir, binDir string, tr *tracer) (*serveSection, error) {
	s := &serveSection{w: w, all: all, nproc: nproc, seed: seed, runnerDelta: map[string]float64{},
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc, DisableCompression: true}}}
	for i := 0; i < nproc; i++ {
		s.tks = append(s.tks, tr.newTrack(fmt.Sprintf("client %d", i)))
	}
	sp := s.track(0).begin("start servers")
	fl, err := startFleet(ctx, dir, binDir, s.runs(serveCluster))
	s.track(0).end(sp)
	if err != nil {
		return nil, err
	}
	s.fl = fl
	if s.runs(serveBuild) {
		err = s.warmHot(ctx, s.bodiesFor(serveBuild))
	}
	if err == nil && s.runs(serveSession) {
		err = s.openStreams(ctx, s.bodiesFor(serveSession))
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close ends the sessions and stops the fleet; it returns the servers'
// summed peak RSS in MB.
func (s *serveSection) close() float64 {
	for _, st := range s.streams {
		st.abort()
	}
	s.streams = nil
	s.hc.CloseIdleConnections()
	return s.fl.stop()
}

// run drives one slice of traffic. The traced pass splits it: half to
// the workload's own kind, a quarter to each other.
func (s *serveSection) run(ctx context.Context, budget time.Duration) {
	slice := func(k serveKind) time.Duration {
		switch {
		case !s.all:
			return budget
		case s.w.kind == k:
			return budget / 2
		}
		return budget / 4
	}
	if s.runs(serveBuild) {
		s.runBuilds(ctx, s.bodiesFor(serveBuild), slice(serveBuild))
	}
	if s.runs(serveSession) {
		s.runSessions(ctx, slice(serveSession))
	}
	if s.runs(serveCluster) {
		s.runCluster(ctx, s.bodiesFor(serveCluster), slice(serveCluster))
		if s.all {
			s.clusterControl(ctx, s.bodiesFor(serveCluster))
		}
	}
}

// finish ends the sessions in-band, runs the checked session and the
// in-process layer probes, and makes sure no server died on the way.
func (s *serveSection) finish(ctx context.Context) {
	if s.runs(serveSession) {
		s.closeStreams()
		s.checkedSession(ctx, s.bodiesFor(serveSession))
	}
	if s.all {
		s.probe.run(ctx, s)
	}
	if dead := s.fl.firstDead(); dead != nil {
		s.fail("server %s exited during the run:\n%s", dead.name, tail(dead.log))
	}
}

// endCycle stamps the requests answered since the last call with the
// cycle they ran in.
func (s *serveSection) endCycle(c int) {
	for i := len(s.builds) - 1; i >= 0 && s.builds[i].cycle == 0; i-- {
		s.builds[i].cycle = c + 1
	}
	for i := len(s.steps) - 1; i >= 0 && s.steps[i].cycle == 0; i-- {
		s.steps[i].cycle = c + 1
	}
	for i := len(s.clusterReqs) - 1; i >= 0 && s.clusterReqs[i].cycle == 0; i-- {
		s.clusterReqs[i].cycle = c + 1
	}
}

// latencies returns the client-observed latencies of the workload's own
// traffic kind, the cycle each was taken in, and the time they were
// collected in.
func (s *serveSection) latencies() (lat []float64, cyc []int, elapsed time.Duration) {
	switch s.w.kind {
	case serveBuild:
		for _, o := range s.builds {
			if o.ok {
				lat, cyc = append(lat, o.lat), append(cyc, o.cycle-1)
			}
		}
		return lat, cyc, s.buildElapsed
	case serveSession:
		for _, o := range s.steps {
			lat, cyc = append(lat, o.rtt), append(cyc, o.cycle-1)
		}
		return lat, cyc, s.sessionElapsed
	}
	for _, o := range s.clusterReqs {
		lat, cyc = append(lat, o.lat), append(cyc, o.cycle-1)
	}
	return lat, cyc, s.clusterElapsed
}

func (s *serveSection) report(m metrics, yard []float64) {
	lat, cyc, elapsed := s.latencies()
	m.set("req_p50_rel", ratioMedian(lat, pick(yard, cyc)))
	m.set("req_ms_p50", median(lat))
	m.set("req_ms_p95", percentile(lat, 95))
	m.set("req_per_s", ratio(float64(len(lat)), elapsed.Seconds()))
	if !s.all {
		return
	}

	pick := func(f func(buildObs) (float64, bool)) []float64 {
		var out []float64
		for _, o := range s.builds {
			if v, ok := f(o); ok && o.ok {
				out = append(out, v)
			}
		}
		return out
	}
	fresh := pick(func(o buildObs) (float64, bool) { return o.lat, o.fresh })
	freshSrv := pick(func(o buildObs) (float64, bool) { return o.srvTotal, o.fresh })
	var queued, queueMs, totalMs float64
	for _, o := range s.builds {
		if o.queue > 0 {
			queued++
		}
		queueMs += o.queue
		totalMs += o.srvTotal
	}
	m.set("partreed.server_total_ms_p50", median(freshSrv))
	m.set("partreed.http_overhead_ms_p50", median(pick(func(o buildObs) (float64, bool) { return o.lat - o.late - o.srvTotal, o.fresh })))
	m.set("partreed.fresh_req_ms_p50", median(fresh))
	m.set("partreed.hit_req_ms_p50", median(pick(func(o buildObs) (float64, bool) { return o.lat, !o.fresh })))
	m.set("partreed.req_ms_p99", percentile(pick(func(o buildObs) (float64, bool) { return o.lat, true }), 99))
	m.set("partreed.resp_bytes", median(pick(func(o buildObs) (float64, bool) { return float64(o.bytes), o.fresh })))
	d := s.runnerDelta
	m.set("runner.cache_hit_frac", ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"]))
	m.set("runner.bodies_hit_frac", ratio(d["body_memo_hits"], d["body_memo_hits"]+d["body_memo_misses"]))
	m.set("engine.queued_frac", ratio(queued, float64(len(s.builds))))
	m.set("engine.queue_wait_frac", ratio(queueMs, totalMs))
	m.set("engine.rejected", float64(s.rejected))
	m.set("bench.gen_late_ms_p95", percentile(pick(func(o buildObs) (float64, bool) { return o.late, true }), 95))

	var rtt, srv, build, over, upd []float64
	for _, o := range s.steps {
		rtt = append(rtt, o.rtt)
		srv = append(srv, o.srvTotal)
		build = append(build, o.srvBuild)
		over = append(over, o.rtt-o.srvTotal)
		if o.update {
			upd = append(upd, 1)
		} else {
			upd = append(upd, 0)
		}
	}
	m.set("partreed.session_open_ms", median(s.openMs))
	m.set("partreed.session_total_ms_p50", median(srv))
	m.set("partreed.session_build_ms_p50", median(build))
	m.set("partreed.session_overhead_ms_p50", median(over))
	m.set("partreed.session_fallbacks", float64(s.fallbacks))
	m.set("partreed.session_update_frac", mean(upd))

	col := func(f func(clusterObs) float64) []float64 {
		out := make([]float64, len(s.clusterReqs))
		for i, o := range s.clusterReqs {
			out[i] = f(o)
		}
		return out
	}
	clusterLat := median(col(func(o clusterObs) float64 { return o.lat }))
	m.set("cluster.slowest_shard_wall_ms_p50", median(col(func(o clusterObs) float64 { return o.slowWall })))
	m.set("cluster.slowest_shard_tree_ms_p50", median(col(func(o clusterObs) float64 { return o.slowTree })))
	m.set("cluster.router_overhead_ms_p50", median(col(func(o clusterObs) float64 { return o.lat - o.slowWall })))
	m.set("cluster.shard_unaccounted_ms_p50", median(col(func(o clusterObs) float64 { return o.slowWall - o.slowTree })))
	m.set("cluster.shard_skew", median(col(func(o clusterObs) float64 { return ratio(o.slowWall, o.meanWall) })))
	m.set("cluster.body_split", median(col(func(o clusterObs) float64 { return ratio(o.maxN, o.meanN) })))
	m.set("cluster.router_hop_ms_p50", median(s.hopMs))
	m.set("cluster.single_req_ms_p50", median(s.controlMs))
	m.set("cluster.fanout_gain", ratio(median(s.controlMs), clusterLat))

	s.probe.report(m)
}

func mean(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return ratio(t, float64(len(xs)))
}

// identities renders the serving accounting identities of the kinds this
// pass ran.
func (s *serveSection) identities() []string {
	lat, _, _ := s.latencies()
	out := []string{fmt.Sprintf("latency sample: n=%d, highest percentile with ten samples beyond it: p%.0f",
		len(lat), tailPercentile(len(lat)))}
	if s.runs(serveBuild) {
		var lat, srv, over []float64
		for _, o := range s.builds {
			if o.ok && o.fresh {
				lat, srv, over = append(lat, o.lat-o.late), append(srv, o.srvTotal), append(over, o.lat-o.late-o.srvTotal)
			}
		}
		out = append(out, identityLine("fresh build request (from send) = partreed.server_total + partreed.http_overhead",
			median(lat), median(srv)+median(over)))
	}
	if s.runs(serveCluster) {
		var lat, wall, over []float64
		for _, o := range s.clusterReqs {
			lat, wall, over = append(lat, o.lat), append(wall, o.slowWall), append(over, o.lat-o.slowWall)
		}
		out = append(out, identityLine("cluster request = cluster.slowest_shard_wall + cluster.router_overhead",
			median(lat), median(wall)+median(over)))
	}
	return out
}

// layerProbe times the serving layers in process — the same calls
// partreed makes per request, without HTTP around them — so the request
// latency can be split into what the layers cost and what serving adds.
type layerProbe struct {
	runMs, hitUs, genMs, treeMs, unaccountedMs []float64
	acquireUs, leaseStepMs                     []float64
}

const probeReps = 8

func (p *layerProbe) run(ctx context.Context, s *serveSection) {
	k := s.track(0)
	r := runner.New(0)
	n := s.bodiesFor(serveBuild)
	for i := 0; i < probeReps; i++ {
		spec := buildSpec(s.w, n, s.freshSeed(1_000_000+i), false)
		sp := k.begin("runner.Run fresh")
		t0 := time.Now()
		res := r.Run(ctx, spec)
		p.runMs = append(p.runMs, ms(time.Since(t0)))
		k.end(sp)
		s.attempted++
		if res.Failed() {
			s.fail("runner probe: %s", res.FailureMessage())
			continue
		}
		p.genMs = append(p.genMs, float64(res.GenNs)/1e6)
		p.treeMs = append(p.treeMs, res.TreeNs/1e6)
		p.unaccountedMs = append(p.unaccountedMs, (float64(res.WallNs)-res.TreeNs*float64(res.StepsDone))/1e6)
		sp = k.begin("runner.Run hit")
		t0 = time.Now()
		r.Run(ctx, spec)
		p.hitUs = append(p.hitUs, float64(time.Since(t0).Nanoseconds())/1e3)
		k.end(sp)
	}

	eng := r.Engine()
	key := engine.Key{Alg: core.LOCAL, P: 1, LeafCap: 8}
	const batch = 200
	for i := 0; i < probeReps; i++ {
		sp := k.begin("engine.Acquire x200")
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			ses, err := eng.Acquire(ctx, key)
			if err != nil {
				s.fail("engine probe: %v", err)
				break
			}
			ses.Release()
		}
		p.acquireUs = append(p.acquireUs, float64(time.Since(t0).Nanoseconds())/1e3/batch)
		k.end(sp)
	}

	bodies := phys.Generate(s.w.model, s.bodiesFor(serveSession), s.seed)
	lease, err := eng.OpenLease(core.NewStepper(core.Config{P: 1, LeafCap: 8}, bodies, core.FallbackPolicy{}), 0)
	if err != nil {
		s.fail("lease probe: %v", err)
		return
	}
	defer lease.Close()
	for i := 0; i < probeReps+2; i++ {
		dt := driftDt
		if i%2 == 1 {
			dt = -driftDt
		}
		bodies.Drift(0, bodies.N(), dt)
		sp := k.begin("Lease.Step")
		t0 := time.Now()
		_, err := lease.Step(ctx, core.StepInput{})
		d := time.Since(t0)
		k.end(sp)
		if err != nil {
			s.fail("lease probe step: %v", err)
			return
		}
		if i >= 2 {
			p.leaseStepMs = append(p.leaseStepMs, ms(d))
		}
	}
}

func (p *layerProbe) report(m metrics) {
	m.set("runner.run_ms", median(p.runMs))
	m.set("runner.hit_run_us", median(p.hitUs))
	m.set("runner.gen_ms", median(p.genMs))
	m.set("runner.tree_ms", median(p.treeMs))
	m.set("runner.unaccounted_ms", median(p.unaccountedMs))
	m.set("engine.acquire_us", median(p.acquireUs))
	m.set("engine.lease_step_ms", median(p.leaseStepMs))
}
