package runner

import (
	"fmt"
	"sync/atomic"

	"partree/internal/core"
	"partree/internal/obs"
	"partree/internal/trace"
)

// runnerObs is the runner's live instrumentation. Counters are plain
// atomics maintained on every run whether or not a registry is attached
// — the cost is a handful of atomic adds per *spec* (never per body or
// per tree node), so there is nothing to disable. RegisterObs exposes
// them on a registry when a binary runs with -http.
//
// The counters obey conservation laws that AuditObs checks against the
// result cache (the runner-level analogue of internal/verify's metrics
// laws): every cache miss becomes exactly one execution, every execution
// ends completed or failed, and hits+misses account for every request.
type runnerObs struct {
	runs        atomic.Int64 // requests that reached the cache lookup
	cacheHits   atomic.Int64 // requests answered by an existing entry
	cacheMisses atomic.Int64 // requests that created an entry (one execution each)
	started     atomic.Int64 // executions begun (one per cache miss)
	completed   atomic.Int64 // executions finished with a usable Result
	failed      atomic.Int64 // executions finished with Result.Failed()
	inFlight    atomic.Int64 // executions begun and not yet published
	memoHits    atomic.Int64 // body-set requests served from the memo
	memoMisses  atomic.Int64 // body-set requests that generated bodies

	resultEvictions  atomic.Int64 // completed results dropped past the LRU bound
	bodyEvictions    atomic.Int64 // body sets dropped past the LRU bound
	transientDropped atomic.Int64 // admission rejections dropped from the cache

	// specSeconds distributes per-spec wall time (Result.WallNs) across
	// deterministic exponential buckets, labeled by backend: 1ms..~137s.
	specSeconds *obs.Vec[*obs.Histogram]
	// traceBridge accumulates traced builds' summaries (phase seconds,
	// lock wait/hold) into live counters — the summary → metrics bridge.
	traceBridge *trace.MetricsBridge
}

func newRunnerObs() *runnerObs {
	return &runnerObs{
		specSeconds: obs.NewHistogramVec(
			"partree_runner_spec_duration_seconds",
			"Wall-clock time per executed spec (cache hits excluded).",
			obs.ExpBuckets(0.001, 2, 18), "backend"),
		traceBridge: trace.NewMetricsBridge(),
	}
}

// observeExecuted records one finished execution.
func (o *runnerObs) observeExecuted(res Result) {
	if res.Failed() {
		o.failed.Add(1)
	} else {
		o.completed.Add(1)
	}
	o.specSeconds.With(string(res.Spec.Backend)).Observe(float64(res.WallNs) / 1e9)
	if s, ok := res.TraceSummary(); ok {
		o.traceBridge.Record(s)
	}
}

// ObsSnapshot is a consistent-enough view of the runner's counters for
// tests and audits (exact when no executions are in flight).
type ObsSnapshot struct {
	Runs, CacheHits, CacheMisses int64
	Started, Completed, Failed   int64
	InFlight                     int64
	BodyMemoHits, BodyMemoMisses int64
	ResultEvictions              int64
	BodyEvictions                int64
	TransientDropped             int64
	SpecDurationsObserved        uint64
}

// ObsSnapshot returns the current counter values.
func (r *Runner) ObsSnapshot() ObsSnapshot {
	o := r.obs
	var durations uint64
	for _, b := range []Backend{Native, Simulated} {
		durations += o.specSeconds.With(string(b)).Count()
	}
	return ObsSnapshot{
		Runs:                  o.runs.Load(),
		CacheHits:             o.cacheHits.Load(),
		CacheMisses:           o.cacheMisses.Load(),
		Started:               o.started.Load(),
		Completed:             o.completed.Load(),
		Failed:                o.failed.Load(),
		InFlight:              o.inFlight.Load(),
		BodyMemoHits:          o.memoHits.Load(),
		BodyMemoMisses:        o.memoMisses.Load(),
		ResultEvictions:       o.resultEvictions.Load(),
		BodyEvictions:         o.bodyEvictions.Load(),
		TransientDropped:      o.transientDropped.Load(),
		SpecDurationsObserved: durations,
	}
}

// AuditObs cross-checks the live counters against the result cache — the
// runner-level conservation law, companion to internal/verify's six
// metrics laws. It is exact only when the runner is idle (no Run or
// RunAll in progress).
func (r *Runner) AuditObs() error {
	s := r.ObsSnapshot()
	results := r.Results()
	if s.InFlight != 0 {
		return fmt.Errorf("runner obs: not idle: in-flight=%d", s.InFlight)
	}
	if s.CacheHits+s.CacheMisses != s.Runs {
		return fmt.Errorf("runner obs: hits(%d)+misses(%d) != runs(%d)", s.CacheHits, s.CacheMisses, s.Runs)
	}
	// Evicted entries and dropped admission rejections were misses whose
	// results the cache no longer holds; they complete the balance.
	if s.CacheMisses != int64(len(results))+s.ResultEvictions+s.TransientDropped {
		return fmt.Errorf("runner obs: misses(%d) != cache entries(%d)+evicted(%d)+transient(%d)",
			s.CacheMisses, len(results), s.ResultEvictions, s.TransientDropped)
	}
	if s.Started != s.CacheMisses {
		return fmt.Errorf("runner obs: started(%d) != misses(%d)", s.Started, s.CacheMisses)
	}
	if s.Completed+s.Failed != s.Started {
		return fmt.Errorf("runner obs: completed(%d)+failed(%d) != started(%d)", s.Completed, s.Failed, s.Started)
	}
	var failed int64
	for _, res := range results {
		if res.Failed() {
			failed++
		}
	}
	if s.ResultEvictions == 0 && s.TransientDropped == 0 && failed != s.Failed {
		// Only checkable while every executed result is still cached.
		return fmt.Errorf("runner obs: failed counter(%d) != failed results(%d)", s.Failed, failed)
	}
	if s.SpecDurationsObserved != uint64(s.Started) {
		return fmt.Errorf("runner obs: duration observations(%d) != executions(%d)", s.SpecDurationsObserved, s.Started)
	}
	if s.BodyMemoHits+s.BodyMemoMisses < s.Started {
		return fmt.Errorf("runner obs: body memo hits(%d)+misses(%d) < executions(%d)",
			s.BodyMemoHits, s.BodyMemoMisses, s.Started)
	}
	return nil
}

// RegisterObs exposes the runner's counters, gauges, and the per-spec
// duration histogram on reg. Call once per (runner, registry) pair.
func (r *Runner) RegisterObs(reg *obs.Registry) error {
	o := r.obs
	ctr := func(name, help string, v *atomic.Int64) obs.Collector {
		return obs.NewCounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	return reg.Register(
		ctr("partree_runner_runs_total", "Spec requests that reached the result cache.", &o.runs),
		ctr("partree_runner_cache_hits_total", "Spec requests answered by the memoized result cache.", &o.cacheHits),
		ctr("partree_runner_cache_misses_total", "Spec requests that triggered a new execution.", &o.cacheMisses),
		ctr("partree_runner_specs_started_total", "Spec executions begun (one per cache miss).", &o.started),
		ctr("partree_runner_specs_completed_total", "Spec executions that finished successfully.", &o.completed),
		ctr("partree_runner_specs_failed_total", "Spec executions that finished with an error or check failure.", &o.failed),
		obs.NewGaugeFunc("partree_runner_in_flight", "Spec executions begun and not yet published (queued in the engine or running).",
			func() float64 { return float64(o.inFlight.Load()) }),
		ctr("partree_runner_body_memo_hits_total", "Body-set requests served from the (model,n,seed) memo.", &o.memoHits),
		ctr("partree_runner_body_memo_misses_total", "Body-set requests that generated a new body set.", &o.memoMisses),
		evictionsCollector{o},
		o.specSeconds,
		o.traceBridge,
	)
}

// evictionsCollector renders both LRU caches' eviction counters as one
// family labeled by cache, so a dashboard spots churn in either bound.
type evictionsCollector struct{ o *runnerObs }

// Collect implements obs.Collector.
func (c evictionsCollector) Collect(out []obs.Family) []obs.Family {
	return append(out, obs.Family{
		Name: "partree_runner_evictions_total",
		Help: "Cache entries evicted past the configured LRU bounds, by cache.",
		Type: obs.TypeCounter,
		Series: []obs.Series{
			{Labels: []obs.Label{{Name: "cache", Value: "bodies"}}, Value: float64(c.o.bodyEvictions.Load())},
			{Labels: []obs.Label{{Name: "cache", Value: "results"}}, Value: float64(c.o.resultEvictions.Load())},
		},
	})
}

// buildCollector exposes internal/core's process-wide per-algorithm
// build totals as labeled counter families. The totals are fed by every
// builder constructed through core.New, so native builds show up here no
// matter which layer ran them (runner spec, nbody step, verify
// reference).
type buildCollector struct{}

// RegisterBuildObs adds the partree_build_* families to reg. They are
// process-global: register once per registry, not once per runner.
func RegisterBuildObs(reg *obs.Registry) error {
	return reg.Register(buildCollector{})
}

// Collect implements obs.Collector.
func (buildCollector) Collect(out []obs.Family) []obs.Family {
	type col struct {
		name string
		help string
		get  func(core.BuildTotals) int64
	}
	cols := []col{
		{"partree_build_total", "Completed tree builds per algorithm.", func(t core.BuildTotals) int64 { return t.Builds }},
		{"partree_build_locks_total", "Lock acquisitions during tree builds.", func(t core.BuildTotals) int64 { return t.Locks }},
		{"partree_build_cells_total", "Cells allocated during tree builds.", func(t core.BuildTotals) int64 { return t.Cells }},
		{"partree_build_leaves_total", "Leaves allocated during tree builds.", func(t core.BuildTotals) int64 { return t.Leaves }},
		{"partree_build_retries_total", "Lost-race descent restarts during tree builds.", func(t core.BuildTotals) int64 { return t.Retries }},
		{"partree_build_bodies_total", "Bodies loaded into trees.", func(t core.BuildTotals) int64 { return t.Bodies }},
		{"partree_build_bodies_moved_total", "Bodies moved across leaf boundaries by UPDATE.", func(t core.BuildTotals) int64 { return t.Moved }},
	}
	totals := make([]core.BuildTotals, core.NumAlgorithms)
	for _, a := range core.Algorithms() {
		totals[int(a)] = core.BuildTotalsFor(a)
	}
	for _, c := range cols {
		fam := obs.Family{Name: c.name, Help: c.help, Type: obs.TypeCounter}
		for _, a := range core.Algorithms() {
			fam.Series = append(fam.Series, obs.Series{
				Labels: []obs.Label{{Name: "alg", Value: a.String()}},
				Value:  float64(c.get(totals[int(a)])),
			})
		}
		out = append(out, fam)
	}
	return out
}
