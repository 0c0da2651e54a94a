package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/cluster"
	"partree/internal/core"
	"partree/internal/runner"
	arrivals "partree/internal/workload"
)

// The serving surface: real partreed and partree-router processes driven
// over HTTP from this one process through at most nproc connections.

const (
	hotSpecs      = 16   // specs the open loop repeats, so the result cache answers
	freshFrac     = 0.70 // share of open-loop requests with a never-seen seed
	checkEvery    = 20   // one in this many fresh builds runs with check:true
	collapseEvery = 200  // a session sends a collapse record every this many steps
	collapseBy    = 0.05
	// sessionDt is the drift step of the sessions' server-side motion, a
	// tenth of partreed's default: drift has no forces, so the bodies fly
	// apart, and a session that manages more steps would otherwise be
	// stepping a different, larger system.
	sessionDt    = 0.001
	requestLimit = 30 * time.Second
)

// fleet is the set of server processes one run spawns.
type fleet struct {
	single *server // un-sharded partreed: builds, sessions, the cluster control
	shards []*server
	router *server
}

func (f *fleet) all() []*server {
	out := []*server{}
	if f.single != nil {
		out = append(out, f.single)
	}
	out = append(out, f.shards...)
	if f.router != nil {
		out = append(out, f.router)
	}
	return out
}

// startFleet starts one partreed and, when withCluster is set, two shard
// daemons behind a router, as scripts/cluster_smoke.sh does.
func startFleet(ctx context.Context, dir, binDir string, withCluster bool) (*fleet, error) {
	f := &fleet{}
	partreed := filepath.Join(binDir, "partreed")
	var err error
	if f.single, err = startServer(ctx, dir, "partreed", partreed); err != nil {
		return nil, err
	}
	if !withCluster {
		return f, nil
	}
	m := cluster.UniformMap(1, cluster.Domain{Size: 4}, 2)
	doc, err := m.Encode()
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, "map.json"), doc, 0o644)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	for i := range m.Shards {
		s, err := startServer(ctx, dir, m.Shards[i].ID, partreed,
			"-shard-map", filepath.Join(dir, "map.json"), "-shard", m.Shards[i].ID)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, s)
		m.Shards[i].Addr = strings.TrimPrefix(s.url, "http://")
	}
	if doc, err = m.Encode(); err == nil {
		err = os.WriteFile(filepath.Join(dir, "map-addressed.json"), doc, 0o644)
	}
	if err == nil {
		f.router, err = startServer(ctx, dir, "router", filepath.Join(binDir, "partree-router"),
			"-map", filepath.Join(dir, "map-addressed.json"))
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// stop drains every server and returns their summed peak RSS in MB.
func (f *fleet) stop() float64 {
	var rss float64
	for _, s := range f.all() {
		if s.alive() {
			rss += s.peakRSSMB()
		}
	}
	// The router first, so no shard drains under a fan-out in flight.
	all := f.all()
	for i := len(all) - 1; i >= 0; i-- {
		all[i].stop()
	}
	return rss
}

// firstDead returns a server that exited although nobody stopped it.
func (f *fleet) firstDead() *server {
	for _, s := range f.all() {
		if !s.alive() {
			return s
		}
	}
	return nil
}

// ---- one-shot builds (open loop) -----------------------------------

type buildObs struct {
	fresh, ok                  bool
	status                     int
	lat, late, srvTotal, queue float64 // ms
	cycle                      int     // the cycle it ran in, from 1; 0 until stamped
	bytes                      int
}

// buildSpec is the request the open loop sends: a native build-only run
// of one build. LOCAL is the SPLASH-2 default algorithm.
func buildSpec(w workload, n int, seed int64, check bool) runner.Spec {
	return runner.Spec{Backend: runner.Native, Alg: core.LOCAL, Procs: 1, Bodies: n, Steps: 1,
		Seed: seed, Model: w.model.String(), BuildOnly: true, Spatial: true, Check: check}
}

// serverTiming parses one entry of a Server-Timing header.
func serverTiming(h, name string) float64 {
	for _, part := range strings.Split(h, ",") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(part), name+";dur="); ok {
			v, _ := strconv.ParseFloat(rest, 64)
			return v
		}
	}
	return 0
}

// stamps collects the HTTP client's send/wait instants for one request.
type stamps struct{ wrote, first time.Time }

func (st *stamps) attach(ctx context.Context) context.Context {
	return httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { st.wrote = time.Now() },
		GotFirstResponseByte: func() { st.first = time.Now() },
	})
}

// post sends one JSON document and decodes the JSON answer, recording
// send → wait → read spans on k. It returns the status, the response
// header and the body size.
func (s *serveSection) post(ctx context.Context, k *track, url string, in, out any) (int, http.Header, int, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return 0, nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, requestLimit)
	defer cancel()
	var st stamps
	if k != nil {
		ctx = st.attach(ctx)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, resp.Header, len(raw), err
	}
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(raw, out)
	}
	k.add("send", start, st.wrote)
	k.add("wait", st.wrote, st.first)
	k.add("read", st.first, time.Now())
	return resp.StatusCode, resp.Header, len(raw), err
}

// buildOnce sends one /v1/build and judges the answer.
func (s *serveSection) buildOnce(ctx context.Context, k *track, base string, spec runner.Spec) buildObs {
	var res runner.Result
	sp := k.begin("POST /v1/build")
	start := time.Now()
	status, hdr, n, err := s.post(ctx, k, base+"/v1/build", spec, &res)
	o := buildObs{status: status, lat: ms(time.Since(start)), bytes: n}
	if hdr != nil {
		st := hdr.Get("Server-Timing")
		o.srvTotal, o.queue = serverTiming(st, "total"), serverTiming(st, "queue")
		k.count("server.total_ms", o.srvTotal)
		k.count("server.queue_ms", o.queue)
		k.count("server.build_ms", serverTiming(st, "build"))
	}
	k.end(sp)
	o.ok = err == nil && status == http.StatusOK && !res.Failed() &&
		res.StepsDone == spec.Steps && res.Cells > 0
	return o
}

// warmHot sends each hot spec once so the measured loop finds it cached.
func (s *serveSection) warmHot(ctx context.Context, n int) error {
	for i := 0; i < hotSpecs; i++ {
		if o := s.buildOnce(ctx, nil, s.fl.single.url, buildSpec(s.w, n, s.hotSeed(i), false)); !o.ok {
			return fmt.Errorf("warming hot spec %d: status %d", i, o.status)
		}
	}
	return nil
}

func (s *serveSection) hotSeed(i int) int64   { return s.seed*1_000_003 + int64(i%hotSpecs) + 1 }
func (s *serveSection) freshSeed(i int) int64 { return s.seed*1_000_003 + 1000 + int64(i) }

// runBuilds is one slice of the open loop: a Poisson schedule of
// buildRate requests per second laid out from the seed, dispatched by
// nproc workers. A request's latency runs from the instant it was due,
// so the wait a stall imposes on the requests behind it counts.
func (s *serveSection) runBuilds(ctx context.Context, n int, budget time.Duration) {
	proc := arrivals.Process{Kind: "poisson", Rate: buildRate}
	// The first rate×budget arrivals of a longer schedule, rescaled to end
	// at the budget: a Poisson stream conditioned on its count, so the
	// offered load is the same on every seed and req_per_s measures the
	// server, not the draw.
	sliceSeed := s.seed*1_000_003 + int64(len(s.builds))
	due := proc.Schedule(2*budget, sliceSeed)
	if want := int(buildRate * budget.Seconds()); len(due) > want && want > 0 {
		due = due[:want]
		scale := float64(budget) / float64(due[want-1])
		for i := range due {
			due[i] = time.Duration(float64(due[i]) * scale)
		}
	}
	if len(due) == 0 {
		due = []time.Duration{0}
	}
	r := rand.New(rand.NewSource(sliceSeed))
	fresh := make([]bool, len(due))
	for i := range fresh {
		fresh[i] = r.Float64() < freshFrac
	}
	var before map[string]float64
	if s.all {
		before = s.scrape(s.fl.single.url)
	}
	base := len(s.builds) // request numbers run on across slices, so fresh seeds never repeat
	obs := make([]buildObs, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for wk := 0; wk < s.nproc; wk++ {
		wg.Add(1)
		go func(k *track) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(due) || ctx.Err() != nil {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					time.Sleep(d)
				}
				k.setOp(int64(base + i))
				sent := time.Now()
				spec := buildSpec(s.w, n, s.hotSeed(base+i), false)
				if fresh[i] {
					spec = buildSpec(s.w, n, s.freshSeed(base+i), (base+i)%checkEvery == 0)
				}
				o := s.buildOnce(ctx, k, s.fl.single.url, spec)
				o.fresh = fresh[i]
				o.late = ms(sent.Sub(start.Add(due[i])))
				o.lat += o.late
				obs[i] = o
			}
		}(s.track(wk))
	}
	wg.Wait()
	s.buildElapsed += time.Since(start)
	s.builds = append(s.builds, obs...)
	if s.all {
		after := s.scrape(s.fl.single.url)
		for _, name := range []string{"cache_hits", "cache_misses", "body_memo_hits", "body_memo_misses"} {
			full := "partree_runner_" + name + "_total"
			s.runnerDelta[name] += after[full] - before[full]
		}
	}
	for i, o := range obs {
		if !o.ok {
			s.fail("build request %d: status %d", base+i, o.status)
			if o.status == http.StatusServiceUnavailable {
				s.rejected++
			}
		}
	}
	s.attempted += len(obs)
}

// scrape sums a /metrics page by series name (labels dropped).
func (s *serveSection) scrape(base string) map[string]float64 {
	out := map[string]float64{}
	resp, err := s.hc.Get(base + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			val = line[strings.LastIndexByte(line, ' ')+1:]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err == nil {
			out[name] += v
		}
	}
	return out
}

// ---- streaming sessions (closed loop) ------------------------------

// Wire records of POST /v1/session (see cmd/partreed/session.go).
type sessionOpenWire struct {
	Procs  int     `json:"procs"`
	Bodies int     `json:"bodies"`
	Model  string  `json:"model"`
	Seed   int64   `json:"seed"`
	Dt     float64 `json:"dt,omitempty"`
	Check  bool    `json:"check,omitempty"`
}

type sessionStepWire struct {
	Drift    bool    `json:"drift,omitempty"`
	Collapse float64 `json:"collapse,omitempty"`
	Close    bool    `json:"close,omitempty"`
}

type sessionWire struct {
	Event     string `json:"event"`
	Error     string `json:"error"`
	Mode      string `json:"mode"`
	Fallback  bool   `json:"fallback"`
	Verified  bool   `json:"verified"`
	Fallbacks int    `json:"fallbacks"`
	Timing    *struct {
		QueueMs   float64 `json:"queue_ms"`
		BuildMs   float64 `json:"build_ms"`
		MomentsMs float64 `json:"moments_ms"`
		TotalMs   float64 `json:"total_ms"`
	} `json:"timing"`
}

type sessionStream struct {
	pw     *io.PipeWriter
	enc    *json.Encoder
	dec    *json.Decoder
	body   io.Closer
	cancel context.CancelFunc
	steps  int
}

// openSession opens one NDJSON stream and waits for the "opened" record.
func (s *serveSection) openSession(ctx context.Context, n int, seed int64, check bool) (*sessionStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.fl.single.url+"/v1/session", pr)
	if err != nil {
		cancel()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	st := &sessionStream{pw: pw, enc: json.NewEncoder(pw), cancel: cancel}
	go st.enc.Encode(sessionOpenWire{Procs: 1, Bodies: n, Model: s.w.model.String(), Seed: seed, Dt: sessionDt, Check: check})
	resp, err := s.hc.Do(req)
	if err != nil {
		pw.Close()
		cancel()
		return nil, err
	}
	st.body, st.dec = resp.Body, json.NewDecoder(resp.Body)
	var r sessionWire
	if resp.StatusCode != http.StatusOK {
		st.abort()
		return nil, fmt.Errorf("session open answered %d", resp.StatusCode)
	}
	if err := st.dec.Decode(&r); err != nil || r.Event != "opened" {
		st.abort()
		return nil, fmt.Errorf("session open: event %q, err %v", r.Event, err)
	}
	return st, nil
}

// step sends one record and reads the answer.
func (st *sessionStream) step(rec sessionStepWire) (sessionWire, error) {
	var r sessionWire
	if err := st.enc.Encode(rec); err != nil {
		return r, err
	}
	if err := st.dec.Decode(&r); err != nil {
		return r, err
	}
	if r.Event != "step" {
		return r, fmt.Errorf("in-stream %s: %s", r.Event, r.Error)
	}
	st.steps++
	return r, nil
}

// close ends the session in-band and returns the server's fallback count.
func (st *sessionStream) close() (int, error) {
	defer st.abort()
	if err := st.enc.Encode(sessionStepWire{Close: true}); err != nil {
		return 0, err
	}
	var r sessionWire
	if err := st.dec.Decode(&r); err != nil || r.Event != "closed" {
		return 0, fmt.Errorf("session close: event %q, err %v", r.Event, err)
	}
	return r.Fallbacks, nil
}

func (st *sessionStream) abort() {
	st.pw.Close()
	st.body.Close()
	st.cancel()
}

type stepObs struct {
	rtt, srvTotal, srvBuild float64 // ms
	cycle                   int     // the cycle it ran in, from 1; 0 until stamped
	update                  bool
}

// openStreams opens the nproc sessions the closed loop will step.
func (s *serveSection) openStreams(ctx context.Context, n int) error {
	for i := 0; i < s.nproc; i++ {
		sp := s.track(i).begin("POST /v1/session open")
		t0 := time.Now()
		st, err := s.openSession(ctx, n, s.seed*1_000_003+int64(i), false)
		s.track(i).end(sp)
		if err != nil {
			return err
		}
		s.openMs = append(s.openMs, ms(time.Since(t0)))
		s.streams = append(s.streams, st)
	}
	return nil
}

// runSessions is one slice of the closed loop: each stream sends its
// next step only when the previous one has been answered, as a
// simulation must.
func (s *serveSection) runSessions(ctx context.Context, budget time.Duration) {
	per := make([][]stepObs, len(s.streams))
	errs := make([]error, len(s.streams))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(budget)
	for i, st := range s.streams {
		wg.Add(1)
		go func(i int, st *sessionStream, k *track) {
			defer wg.Done()
			for ctx.Err() == nil {
				rec := sessionStepWire{Drift: true}
				if st.steps%collapseEvery == collapseEvery-1 {
					rec = sessionStepWire{Collapse: collapseBy}
				}
				k.setOp(int64(st.steps))
				sp := k.begin("session step")
				t0 := time.Now()
				r, err := st.step(rec)
				rtt := time.Since(t0)
				k.end(sp)
				if err != nil {
					errs[i] = err
					return
				}
				o := stepObs{rtt: ms(rtt), update: r.Mode == "update"}
				if r.Timing != nil {
					o.srvTotal, o.srvBuild = r.Timing.TotalMs, r.Timing.BuildMs+r.Timing.MomentsMs
					k.count("server.total_ms", o.srvTotal)
				}
				per[i] = append(per[i], o)
				if !time.Now().Before(deadline) {
					return
				}
			}
		}(i, st, s.track(i))
	}
	wg.Wait()
	s.sessionElapsed += time.Since(start)
	for i := range per {
		s.steps = append(s.steps, per[i]...)
		s.attempted += len(per[i])
		if errs[i] != nil {
			s.attempted++
			s.fail("session %d: %v", i, errs[i])
		}
	}
}

// closeStreams closes the sessions in-band and sums their fallbacks.
func (s *serveSection) closeStreams() {
	for i, st := range s.streams {
		n, err := st.close()
		if err != nil {
			s.fail("session %d close: %v", i, err)
		}
		s.fallbacks += n
	}
	s.streams = nil
}

// checkedSession runs a short session with check:true, outside the
// measured loop: every step must come back verified.
func (s *serveSection) checkedSession(ctx context.Context, n int) {
	s.attempted++
	st, err := s.openSession(ctx, n, s.seed+7, true)
	if err != nil {
		s.fail("checked session: %v", err)
		return
	}
	for i := 0; i < 3; i++ {
		r, err := st.step(sessionStepWire{Drift: i > 0})
		if err != nil || !r.Verified {
			s.fail("checked session step %d: verified=%v err=%v", i, r.Verified, err)
			break
		}
	}
	if _, err := st.close(); err != nil {
		s.fail("checked session close: %v", err)
	}
}

// ---- cluster builds (closed loop, one client) ----------------------

type clusterObs struct {
	lat, slowWall, slowTree, meanWall, maxN, meanN float64
	cycle                                          int // the cycle it ran in, from 1; 0 until stamped
}

// clusterSpec is the request sent through the router; the control sends
// the same spec to the un-sharded daemon.
func clusterSpec(w workload, n int, seed int64, check bool) runner.Spec {
	return runner.Spec{Backend: runner.Native, Alg: core.SPACE, Procs: 1, Bodies: n, Steps: 1,
		Seed: seed, Model: w.model.String(), BuildOnly: true, Check: check}
}

// runCluster is one slice of the closed loop through the router. One
// client, two shards and procs=1 fill a two-core host without
// oversubscribing it, so the time outside the slowest shard is overhead,
// not scheduler noise.
func (s *serveSection) runCluster(ctx context.Context, n int, budget time.Duration) {
	k := s.track(0)
	start := time.Now()
	deadline := start.Add(budget)
	for ctx.Err() == nil {
		i := s.clusterSent
		s.clusterSent++
		spec := clusterSpec(s.w, n, s.freshSeed(i), i%checkEvery == 0)
		k.setOp(int64(i))
		var res cluster.ClusterResult
		sp := k.begin("POST router /v1/build")
		t0 := time.Now()
		status, _, _, err := s.post(ctx, k, s.fl.router.url+"/v1/build", spec, &res)
		lat := time.Since(t0)
		k.end(sp)
		s.attempted++
		if msg := judgeCluster(status, err, res, n); msg != "" {
			s.fail("cluster request %d: %s", i, msg)
		} else {
			o := clusterObs{lat: ms(lat)}
			for _, sh := range res.Shards {
				wall := float64(sh.WallNs) / 1e6
				if wall > o.slowWall {
					o.slowWall, o.slowTree = wall, sh.TreeNs/1e6
				}
				o.meanWall += wall / float64(len(res.Shards))
				o.maxN = max(o.maxN, float64(sh.N))
				o.meanN += float64(sh.N) / float64(len(res.Shards))
			}
			k.count("shard.slowest_wall_ms", o.slowWall)
			s.clusterReqs = append(s.clusterReqs, o)
		}
		if !time.Now().Before(deadline) {
			break
		}
	}
	s.clusterElapsed += time.Since(start)
}

// clusterControl sends the cluster spec to the un-sharded daemon and
// times one bare hop through the router: the traced pass's yardsticks
// for what sharding buys and what the router costs.
func (s *serveSection) clusterControl(ctx context.Context, n int) {
	k := s.track(0)
	c := s.buildOnce(ctx, k, s.fl.single.url, clusterSpec(s.w, n, s.freshSeed(2_000_000+len(s.controlMs)), false))
	s.attempted++
	if !c.ok {
		s.fail("cluster control: status %d", c.status)
	} else {
		s.controlMs = append(s.controlMs, c.lat)
	}
	sp := k.begin("GET router /v1/map")
	t0 := time.Now()
	if resp, err := s.hc.Get(s.fl.router.url + "/v1/map"); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.hopMs = append(s.hopMs, ms(time.Since(t0)))
	}
	k.end(sp)
}

// judgeCluster applies the cluster conservation laws to one merged
// answer: both shards reported, their built bodies tile the set exactly,
// and nothing failed in-band. It returns "" for a good answer.
func judgeCluster(status int, err error, res cluster.ClusterResult, n int) string {
	switch {
	case err != nil:
		return err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("status %d", status)
	case res.Failed():
		return "in-band failure: " + res.Err + res.CheckFailure
	case len(res.Shards) != 2:
		return fmt.Sprintf("%d shards answered, want 2", len(res.Shards))
	}
	var built int64
	for _, sh := range res.Shards {
		built += sh.BodiesBuilt
	}
	if built != int64(n) {
		return fmt.Sprintf("shards built %d bodies, want %d", built, n)
	}
	return ""
}
