package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"partree/internal/obs"
	"partree/internal/reqtrace"
	"partree/internal/runner"
)

// RouterOptions configure a router over a shard map. The map must carry
// an address for every shard.
type RouterOptions struct {
	Map    Map
	Client ClientOptions
}

// scrapeTimeout bounds the rollup collector's per-shard /metrics scrape,
// keeping a dead shard from stalling the router's own /metrics page.
const scrapeTimeout = 2 * time.Second

// ClusterResult is a merged build: the same measurement fields as
// runner.Result under the same JSON names (so existing clients decode
// it unchanged), plus the per-shard breakdown. Sums and maxima follow
// the conservation laws internal/verify audits within one process:
// counters that partition across processors (bodies, locks, cells,
// leaves) also partition across shards and are summed; depth and
// build time are maxima (shards build concurrently, so the cluster's
// build time is its slowest shard's). RouterWallNs is the router's own
// clock around the whole fan-out and merge of a /v1/build — what WallNs,
// the slowest shard's build call, leaves out: the hops, and each
// shard's prep_ns.
type ClusterResult struct {
	Spec         runner.Spec        `json:"spec"`
	TreeNs       float64            `json:"tree_ns"`
	LocksTotal   int64              `json:"locks_total"`
	Retries      int64              `json:"retries,omitempty"`
	Cells        int64              `json:"cells,omitempty"`
	Leaves       int64              `json:"leaves,omitempty"`
	MaxDepth     int64              `json:"max_depth,omitempty"`
	BodiesBuilt  int64              `json:"bodies_built"`
	WallNs       int64              `json:"wall_ns"`
	RouterWallNs int64              `json:"router_wall_ns,omitempty"`
	Err          string             `json:"error,omitempty"`
	CheckFailure string             `json:"check_failure,omitempty"`
	Shards       []ShardBuildResult `json:"shards"`
}

// Failed reports whether the merged build failed (in-band).
func (r ClusterResult) Failed() bool { return r.Err != "" || r.CheckFailure != "" }

// Router fronts a partreed fleet: it owns the addressed map, a client
// per shard, and the fan-out/merge logic for builds.
type Router struct {
	m       Map
	clients []*Client

	builds    *obs.Counter
	rejected  *obs.Counter
	errors    *obs.Counter
	conflicts *obs.Counter
}

// NewRouter validates the map (including addresses) and builds one
// client per shard.
func NewRouter(o RouterOptions) (*Router, error) {
	if err := o.Map.Validate(); err != nil {
		return nil, err
	}
	for _, s := range o.Map.Shards {
		if s.Addr == "" {
			return nil, fmt.Errorf("cluster: router map shard %q has no address", s.ID)
		}
	}
	rt := &Router{
		m:         o.Map,
		builds:    obs.NewCounter("partree_router_builds_total", "Cluster builds fanned out and merged."),
		rejected:  obs.NewCounter("partree_router_rejected_total", "Cluster builds answered 503 because a shard's admission control rejected."),
		errors:    obs.NewCounter("partree_router_shard_errors_total", "Shard calls that failed at transport level or with an unexpected status."),
		conflicts: obs.NewCounter("partree_router_version_conflicts_total", "Shard calls refused with 409 (fleet running a different map version)."),
	}
	for _, s := range o.Map.Shards {
		rt.clients = append(rt.clients, NewClient(s.ID, s.Addr, o.Client))
	}
	return rt, nil
}

// RegisterObs registers the router's own families plus the cluster
// rollup collector, which scrapes every shard's /metrics at gather time
// and sums the build and admission families into partree_cluster_*.
func (rt *Router) RegisterObs(reg *obs.Registry) error {
	return reg.Register(rt.builds, rt.rejected, rt.errors, rt.conflicts,
		&rollupCollector{rt: rt})
}

// Mount registers the router routes on mux behind rec's request
// envelope. The *reqtrace.Req it puts in each request's context is what
// the shard clients stamp their traceparent from, so one client request
// keeps one ID on the router and on every shard it fans out to.
func (rt *Router) Mount(mux *http.ServeMux, rec *reqtrace.Recorder) {
	rec.Handle(mux, http.MethodPost, "/v1/build", "POST a runner.Spec JSON document", rt.handleBuild)
	rec.Handle(mux, http.MethodGet, "/v1/map", "GET the shard map", rt.handleMap)
}

func (rt *Router) handleMap(w http.ResponseWriter, _ *http.Request) {
	b, err := rt.m.Encode()
	if err != nil {
		reqtrace.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// shardAnswer is one shard's build outcome in fan-out arrival order.
type shardAnswer struct {
	idx   int
	order int // completion order, for "slowest shard's reason"
	res   ShardBuildResult
	err   error
}

// fanOutBuild sends the spec to every shard concurrently and returns
// the answers indexed by shard, plus completion order for error
// attribution.
func (rt *Router) fanOutBuild(ctx context.Context, spec runner.Spec) []shardAnswer {
	answers := make([]shardAnswer, len(rt.clients))
	var mu sync.Mutex
	order := 0
	rt.eachShard(func(i int, c *Client) {
		var res ShardBuildResult
		err := c.Call(ctx, "/v1/shard/build",
			ShardBuildRequest{MapVersion: rt.m.Version, Spec: spec}, &res)
		mu.Lock()
		answers[i] = shardAnswer{idx: i, order: order, res: res, err: err}
		order++
		mu.Unlock()
	})
	return answers
}

// eachShard runs f once per shard client, concurrently, and waits.
func (rt *Router) eachShard(f func(i int, c *Client)) {
	var wg sync.WaitGroup
	for i, c := range rt.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, c)
		}()
	}
	wg.Wait()
}

// shardFailure maps a failed shard call onto the status the router
// answers with: the fleet's 409 verbatim, anything else 502.
func (rt *Router) shardFailure(idx int, err error) (int, string) {
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusConflict {
		rt.conflicts.Inc()
		return http.StatusConflict, fmt.Sprintf("shard %s: %s", rt.m.Shards[idx].ID, se.Msg)
	}
	rt.errors.Inc()
	return http.StatusBadGateway, fmt.Sprintf("shard %s: %v", rt.m.Shards[idx].ID, err)
}

// mergeBuild folds per-shard results into one ClusterResult and audits
// the cluster-level conservation law: the shards' owned subsets must
// tile the body set exactly, so ΣN == ΣBodiesBuilt == spec.Bodies.
func mergeBuild(spec runner.Spec, answers []shardAnswer) ClusterResult {
	out := ClusterResult{Spec: spec, Shards: make([]ShardBuildResult, 0, len(answers))}
	var sumN int64
	for _, a := range answers {
		r := a.res
		out.Shards = append(out.Shards, r)
		sumN += int64(r.N)
		out.BodiesBuilt += r.BodiesBuilt
		out.LocksTotal += r.LocksTotal
		out.Retries += r.Retries
		out.Cells += r.Cells
		out.Leaves += r.Leaves
		if r.MaxDepth > out.MaxDepth {
			out.MaxDepth = r.MaxDepth
		}
		if r.TreeNs > out.TreeNs {
			out.TreeNs = r.TreeNs
		}
		if r.WallNs > out.WallNs {
			out.WallNs = r.WallNs
		}
		if r.CheckFailure != "" && out.CheckFailure == "" {
			out.CheckFailure = fmt.Sprintf("shard %s: %s", r.Shard, r.CheckFailure)
		}
		if r.Err != "" && out.Err == "" {
			out.Err = fmt.Sprintf("shard %s: %s", r.Shard, r.Err)
		}
	}
	if out.Err == "" && out.CheckFailure == "" {
		if sumN != int64(spec.Bodies) {
			out.CheckFailure = fmt.Sprintf(
				"cluster conservation: shards own %d bodies, spec has %d (shard ranges do not tile the set)",
				sumN, spec.Bodies)
		} else if out.BodiesBuilt != int64(spec.Bodies) {
			out.CheckFailure = fmt.Sprintf(
				"cluster conservation: shards built %d bodies, spec has %d",
				out.BodiesBuilt, spec.Bodies)
		}
	}
	return out
}

// handleBuild runs one full fan-out/merge. A shard's refusal becomes the
// cluster's status (409/502/503); in-band failures travel inside the
// ClusterResult.
func (rt *Router) handleBuild(w http.ResponseWriter, req *http.Request) {
	// Cluster builds are always native shard builds; see ShardServer.
	spec, err := runner.DecodeServiceSpec(req.Body)
	if err != nil {
		reqtrace.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	start := time.Now()
	answers := rt.fanOutBuild(req.Context(), spec)
	// Transport failures and deliberate rejections are per-status; a 503
	// surfaces the *slowest* rejecting shard's reason — the request was
	// held until that shard answered, so its reason is what the caller
	// actually waited on.
	var reject *shardAnswer
	for i := range answers {
		a := &answers[i]
		if a.err == nil {
			continue
		}
		if se, ok := a.err.(*StatusError); ok && se.Code == http.StatusServiceUnavailable {
			rt.rejected.Inc()
			if reject == nil || a.order > reject.order {
				reject = a
			}
			continue
		}
		code, msg := rt.shardFailure(a.idx, a.err)
		reqtrace.WriteError(w, code, msg)
		return
	}
	if reject != nil {
		se := reject.err.(*StatusError)
		reqtrace.WriteError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("shard %s: %s", rt.m.Shards[reject.idx].ID, se.Msg))
		return
	}
	rt.builds.Inc()
	res := mergeBuild(spec, answers)
	res.RouterWallNs = time.Since(start).Nanoseconds()
	writeJSON(w, res)
}

// rollupFamilies maps each aggregated partree_cluster_* counter to the
// shard-side prefix it sums (series names keep their labels, so a
// labeled family like partree_engine_rejected_total{reason=...} sums
// across reasons and shards alike).
var rollupFamilies = []struct {
	name, prefix, help string
}{
	{"partree_cluster_builds_total", "partree_shard_builds_total", "Shard-level builds served, summed across the fleet."},
	{"partree_cluster_bodies_built_total", "partree_shard_bodies_built_total", "Bodies loaded into shard trees, summed across the fleet."},
	{"partree_cluster_build_total", "partree_build_total", "Process-level builds, summed across the fleet."},
	{"partree_cluster_build_bodies_total", "partree_build_bodies_total", "Process-level bodies built, summed across the fleet."},
	{"partree_cluster_build_locks_total", "partree_build_locks_total", "Process-level build lock acquisitions, summed across the fleet."},
	{"partree_cluster_engine_rejected_total", "partree_engine_rejected_total", "Engine admission rejections, summed across reasons and the fleet."},
}

// rollupCollector aggregates the fleet's metrics at gather time: one
// concurrent scrape per shard (bounded by scrapeTimeout), summed into
// partree_cluster_* families, plus a per-shard partree_cluster_shard_up
// gauge from scrape success. A dead shard degrades to up=0 and drops
// out of the sums instead of failing the router's page.
type rollupCollector struct {
	rt *Router
}

func (rc *rollupCollector) Collect(out []obs.Family) []obs.Family {
	rt := rc.rt
	ctx, cancel := context.WithTimeout(context.Background(), scrapeTimeout)
	defer cancel()
	snaps := make([]map[string]float64, len(rt.clients))
	rt.eachShard(func(i int, c *Client) { snaps[i], _ = c.Metrics(ctx) })

	up := obs.Family{Name: "partree_cluster_shard_up", Type: obs.TypeGauge,
		Help: "1 when the shard's last /metrics scrape succeeded."}
	for i, s := range rt.m.Shards {
		v := 0.0
		if snaps[i] != nil {
			v = 1
		}
		up.Series = append(up.Series, obs.Series{
			Labels: []obs.Label{{Name: "shard", Value: s.ID}}, Value: v})
	}
	out = append(out, up)

	for _, rf := range rollupFamilies {
		var sum float64
		seen := false
		for _, snap := range snaps {
			for k, v := range snap {
				if metricMatches(k, rf.prefix) {
					sum += v
					seen = true
				}
			}
		}
		if !seen {
			continue
		}
		out = append(out, obs.Family{Name: rf.name, Type: obs.TypeCounter, Help: rf.help,
			Series: []obs.Series{{Value: sum}}})
	}
	return out
}

// metricMatches reports whether a scraped series line (name plus
// optional label block) belongs to a family name: an exact match or the
// name followed by '{'.
func metricMatches(series, family string) bool {
	if !strings.HasPrefix(series, family) {
		return false
	}
	return len(series) == len(family) || series[len(family)] == '{'
}
