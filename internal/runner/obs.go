package runner

import (
	"errors"
	"fmt"
	"sync/atomic"

	"partree/internal/core"
	"partree/internal/obs"
)

// runnerObs is the runner's live instrumentation: the counters it counts
// into on every run whether or not a registry is attached — a handful of
// atomic adds per *spec* (never per body or per tree node), so there is
// nothing to disable. RegisterObs lists them on a registry when a binary
// runs with -http.
//
// The counters obey conservation laws that AuditObs checks against the
// result cache (the runner-level analogue of internal/verify's metrics
// laws): every cache miss becomes exactly one execution, every execution
// ends completed or failed, and hits+misses account for every request.
type runnerObs struct {
	runs        *obs.Counter // requests that reached the cache lookup
	cacheHits   *obs.Counter // requests answered by an existing entry
	cacheMisses *obs.Counter // requests that created an entry (one execution each)
	started     *obs.Counter // executions begun (one per cache miss)
	completed   *obs.Counter // executions finished with a usable Result
	failed      *obs.Counter // executions finished with Result.Failed()
	memoHits    *obs.Counter // body-set requests served from the memo
	memoMisses  *obs.Counter // body-set requests that generated bodies

	inFlight atomic.Int64 // executions begun and not yet published (a gauge)

	// evictions counts entries dropped past either LRU bound, by cache.
	evictions *obs.Vec[*obs.Counter]
	// transientDropped counts admission rejections dropped from the
	// result cache; it balances AuditObs and is not exposed.
	transientDropped atomic.Int64
	// replaysReturned counts the simulated replays that ran to their end,
	// abandoned (timed-out) ones included; it is not exposed.
	replaysReturned atomic.Int64

	// specSeconds distributes per-spec wall time (Result.WallNs) across
	// deterministic exponential buckets, labeled by backend: 1ms..~137s.
	specSeconds *obs.Vec[*obs.Histogram]
}

func newRunnerObs() *runnerObs {
	return &runnerObs{
		runs:        obs.NewCounter("partree_runner_runs_total", "Spec requests that reached the result cache."),
		cacheHits:   obs.NewCounter("partree_runner_cache_hits_total", "Spec requests answered by the memoized result cache."),
		cacheMisses: obs.NewCounter("partree_runner_cache_misses_total", "Spec requests that triggered a new execution."),
		started:     obs.NewCounter("partree_runner_specs_started_total", "Spec executions begun (one per cache miss)."),
		completed:   obs.NewCounter("partree_runner_specs_completed_total", "Spec executions that finished successfully."),
		failed:      obs.NewCounter("partree_runner_specs_failed_total", "Spec executions that finished with an error or check failure."),
		memoHits:    obs.NewCounter("partree_runner_body_memo_hits_total", "Body-set requests served from the (model,n,seed) memo."),
		memoMisses:  obs.NewCounter("partree_runner_body_memo_misses_total", "Body-set requests that generated a new body set."),
		evictions: obs.NewCounterVec("partree_runner_evictions_total",
			"Cache entries evicted past the configured LRU bounds, by cache.", "cache"),
		specSeconds: obs.NewHistogramVec(
			"partree_runner_spec_duration_seconds",
			"Wall-clock time per executed spec (cache hits excluded).",
			obs.ExpBuckets(0.001, 2, 18), "backend"),
	}
}

// observeExecuted records one finished execution.
func (o *runnerObs) observeExecuted(res Result) {
	if res.Failed() {
		o.failed.Inc()
	} else {
		o.completed.Inc()
	}
	o.specSeconds.With(string(res.Spec.Backend)).Observe(float64(res.WallNs) / 1e9)
}

// AuditObs cross-checks the live counters against the result cache and
// the body memo — the runner-level conservation laws, companion to
// internal/verify's metrics laws — and holds both caches to their
// bounds: the memo's bytes are the summed sizes of the sets it holds and
// at most bodiesCacheBytes. It is exact only when the runner is idle (no
// Run, RunAll or Bodies call in progress).
func (r *Runner) AuditObs() error {
	o := r.obs
	results := r.Results()
	if n := o.inFlight.Load(); n != 0 {
		return fmt.Errorf("runner obs: not idle: in-flight=%d", n)
	}
	runs, hits, misses := o.runs.Value(), o.cacheHits.Value(), o.cacheMisses.Value()
	started, completed, failed := o.started.Value(), o.completed.Value(), o.failed.Value()
	evicted, transient := r.results.evictions.Value(), float64(o.transientDropped.Load())
	if hits+misses != runs {
		return fmt.Errorf("runner obs: hits(%v)+misses(%v) != runs(%v)", hits, misses, runs)
	}
	// Evicted entries and dropped admission rejections were misses whose
	// results the cache no longer holds; they complete the balance.
	if misses != float64(len(results))+evicted+transient {
		return fmt.Errorf("runner obs: misses(%v) != cache entries(%d)+evicted(%v)+transient(%v)",
			misses, len(results), evicted, transient)
	}
	if started != misses {
		return fmt.Errorf("runner obs: started(%v) != misses(%v)", started, misses)
	}
	if completed+failed != started {
		return fmt.Errorf("runner obs: completed(%v)+failed(%v) != started(%v)", completed, failed, started)
	}
	var failedResults float64
	for _, res := range results {
		if res.Failed() {
			failedResults++
		}
	}
	if evicted == 0 && transient == 0 && failedResults != failed {
		// Only checkable while every executed result is still cached.
		return fmt.Errorf("runner obs: failed counter(%v) != failed results(%v)", failed, failedResults)
	}
	var durations uint64
	for _, b := range []Backend{Native, Simulated} {
		durations += o.specSeconds.With(string(b)).Count()
	}
	if float64(durations) != started {
		return fmt.Errorf("runner obs: duration observations(%d) != executions(%v)", durations, started)
	}
	// Every admitted execution asked the body memo once; a refused one
	// (a transient result) never did.
	if memo := o.memoHits.Value() + o.memoMisses.Value(); memo < started-transient {
		return fmt.Errorf("runner obs: body memo hits+misses(%v) < admitted executions(%v)", memo, started-transient)
	}
	// Every body-memo miss made one entry, which the memo still holds or
	// evicted (an oversized set is evicted as it completes).
	memoMisses, memoEvicted := o.memoMisses.Value(), r.bodies.evictions.Value()
	if held := len(r.bodies.completed()); memoMisses != float64(held)+memoEvicted {
		return fmt.Errorf("runner obs: body memo misses(%v) != sets held(%d)+evicted(%v)", memoMisses, held, memoEvicted)
	}
	// The byte law: the memo holds the summed Bytes of its sets, within
	// bodiesCacheBytes; the result cache likewise holds one per entry.
	if err := r.bodies.audit(); err != nil {
		return fmt.Errorf("runner obs: body memo %v", err)
	}
	if err := r.results.audit(); err != nil {
		return fmt.Errorf("runner obs: result cache %v", err)
	}
	return nil
}

// RegisterObs exposes on reg everything a process running this runner
// counts: the runner's own counters, gauge and per-spec duration
// histogram, its engine's families, and the process-wide per-algorithm
// build totals. Call once per (runner, registry) pair.
func (r *Runner) RegisterObs(reg *obs.Registry) error {
	o := r.obs
	return errors.Join(reg.Register(
		o.runs, o.cacheHits, o.cacheMisses, o.started, o.completed, o.failed,
		obs.NewGaugeFunc("partree_runner_in_flight", "Spec executions begun and not yet published (queued in the engine or running).",
			func() float64 { return float64(o.inFlight.Load()) }),
		o.memoHits, o.memoMisses,
		obs.NewGaugeFunc("partree_runner_body_memo_bytes", "Bytes of the body sets the (model,n,seed) memo holds; at most its 16 MiB budget.",
			func() float64 { return float64(r.bodies.charged()) }),
		o.evictions, o.specSeconds,
	), r.eng.RegisterObs(reg), core.RegisterObs(reg))
}
