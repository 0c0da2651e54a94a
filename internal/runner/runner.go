package runner

import (
	"container/list"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/obs"
	"partree/internal/phys"
	"partree/internal/reqtrace"
)

// Runner is a memoizing, concurrency-safe result cache over an
// engine.Engine. Identical specs share one execution no matter how many
// goroutines request them; distinct specs run concurrently up to the
// engine's MaxActive — the runner schedules nothing itself. Every
// execution passes the engine's one admission gate: native specs hold a
// pooled builder session (Acquire), simulated ones a bare slot
// (Admit), before their bodies are generated. Bodies are memoized per
// (model, n, seed, order) and shared read-only across runs, so every
// backend sees the same deterministic initial conditions. Both caches are
// bounded LRUs — results by entry count (resultCacheEntries), body sets
// by bytes (bodiesCacheBytes) — so a long-lived process (partreed
// serving requests forever) holds a fixed working set instead of
// leaking.
type Runner struct {
	eng *engine.Engine

	results *cache[run]
	bodies  *cache[bodySet]

	// obs holds the live instrumentation counters (see obs.go). They
	// always count — a few atomic adds per spec — and are surfaced over
	// HTTP only when RegisterObs attaches them to a registry.
	obs *runnerObs
}

// run is a result-cache entry's payload.
type run struct {
	spec Spec // normalized
	res  Result
	// rq is the initiating request's record. execute runs on its own
	// goroutine with a fresh context, so the request handle is carried
	// through the entry; cache-hit followers share the entry (and the
	// execution's stamps belong to the request that caused it).
	rq *reqtrace.Req
}

// bodySet is a body-memo entry's payload.
type bodySet struct {
	b     *phys.Bodies
	genNs int64
	err   error
}

// flight is one cache entry: the value being built (or built) and done,
// closed once val is final and charged.
type flight[V any] struct {
	key  string
	done chan struct{}
	val  V
	cost int64         // val's charge, set when published
	elem *list.Element // LRU position; nil once evicted or dropped
}

// published reports whether f's value is final (and charged).
func (f *flight[V]) published() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}

// cache is a single-flight LRU bounded by cost: the first lookup of a
// key creates its entry and that caller fills it and publishes it; every
// concurrent or later lookup shares the entry. Publishing charges the
// entry its cost and, past max, evicts the least recently used published
// entries. An entry costing more than max on its own is dropped as it
// publishes: it is shared while in flight, never held. In-flight entries
// cost nothing and are never evicted (their execution must publish
// somewhere). Evicting only drops the cache's reference; holders of an
// entry keep using it.
type cache[V any] struct {
	mu        sync.Mutex
	entries   map[string]*flight[V]
	lru       *list.List // *flight[V], front = most recently used
	cost      func(V) int64
	max       int64
	held      int64 // the summed cost of the published entries held
	evictions *obs.Counter
}

func newCache[V any](max int64, cost func(V) int64, evictions *obs.Counter) *cache[V] {
	return &cache[V]{entries: map[string]*flight[V]{}, lru: list.New(), cost: cost, max: max, evictions: evictions}
}

// lookup returns key's entry; created reports that this call made it,
// which obliges the caller to fill val and publish it.
func (c *cache[V]) lookup(key string) (f *flight[V], created bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.entries[key]; ok {
		c.lru.MoveToFront(f.elem)
		return f, false
	}
	f = &flight[V]{key: key, done: make(chan struct{})}
	c.entries[key] = f
	f.elem = c.lru.PushFront(f)
	return f, true
}

// publish charges f's final value, evicts past the bound and closes
// done, all under the lock, so a caller that has seen done finds the
// charge and the evictions made. An entry dropped before it published (a
// transient result) is only closed.
func (c *cache[V]) publish(f *flight[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer close(f.done)
	if f.elem == nil {
		return
	}
	cost := c.cost(f.val)
	if cost > c.max {
		c.remove(f)
		c.evictions.Inc()
		return
	}
	f.cost = cost
	c.held += cost
	for el := c.lru.Back(); el != nil && c.held > c.max; {
		prev := el.Prev()
		if old := el.Value.(*flight[V]); old.published() { // f itself is not yet
			c.remove(old)
			c.evictions.Inc()
		}
		el = prev
	}
}

// remove unlinks f and takes back its charge. Caller holds c.mu.
func (c *cache[V]) remove(f *flight[V]) {
	c.lru.Remove(f.elem)
	f.elem = nil
	delete(c.entries, f.key)
	c.held -= f.cost
}

// drop forgets f (if the cache still holds it) so the next lookup of its
// key starts afresh; current waiters still observe f's value.
func (c *cache[V]) drop(f *flight[V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.elem != nil {
		c.remove(f)
	}
}

// completed snapshots the values of every finished entry.
func (c *cache[V]) completed() []V {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []V
	for _, f := range c.entries {
		if f.published() {
			out = append(out, f.val)
		}
	}
	return out
}

// charged is the summed cost of the published entries the cache holds.
func (c *cache[V]) charged() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held
}

// audit checks the cost law: what the cache holds is the sum of its
// published entries' costs, recomputed from their values, and within
// its bound.
func (c *cache[V]) audit() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	for _, f := range c.entries {
		if f.published() {
			sum += c.cost(f.val)
		}
	}
	if sum != c.held {
		return fmt.Errorf("holds %d but its entries cost %d", c.held, sum)
	}
	if c.held > c.max {
		return fmt.Errorf("holds %d, past its bound %d", c.held, c.max)
	}
	return nil
}

// Config sizes a runner for its lifetime. The zero value of every field
// selects the documented default, so Config{} behaves like New(0).
type Config struct {
	// Workers is the MaxActive of the engine a runner creates for itself
	// (0 = GOMAXPROCS); with Engine set it is unused.
	Workers int
	// Engine, when non-nil, is the shared engine every spec executes
	// through; nil creates one Workers wide.
	Engine *engine.Engine
}

// The memo caches' bounds: past one, the least recently used published
// entry is evicted.
const (
	// resultCacheEntries bounds the memoized spec→result cache, an entry
	// costing 1: generous enough that CLI sweeps never evict. An entry is
	// about 1.5 KB at worst (64 processors' lock counts, a simulated
	// spec's protocol counters, an error line), so about 6 MiB in all.
	resultCacheEntries = 4096
	// bodiesCacheBytes bounds the (model, n, seed) body memo, an entry
	// costing its set's Bytes. It holds the largest set the CLI grids
	// reuse (paperrepro -large's 131 072 bodies, about 11.5 MiB) and the
	// whole default grid (4k + 8k + 16k bodies, about 2.5 MiB); served
	// traffic with fresh seeds keeps only what fits, never dozens of
	// sets no later request reads.
	bodiesCacheBytes = 16 << 20
)

// New creates a runner; workers <= 0 selects GOMAXPROCS.
func New(workers int) *Runner {
	return NewWithConfig(Config{Workers: workers})
}

// NewWithConfig creates a runner, optionally over a shared engine.
func NewWithConfig(cfg Config) *Runner {
	if cfg.Engine == nil {
		cfg.Engine = engine.New(engine.Options{MaxActive: cfg.Workers})
	}
	o := newRunnerObs()
	return &Runner{
		eng:     cfg.Engine,
		results: newCache(resultCacheEntries, func(run) int64 { return 1 }, o.evictions.With("results")),
		bodies:  newCache(bodiesCacheBytes, func(b bodySet) int64 { return b.b.Bytes() }, o.evictions.With("bodies")),
		obs:     o,
	}
}

// Engine returns the engine every spec executes through (for drain
// wiring and obs registration).
func (r *Runner) Engine() *engine.Engine { return r.eng }

// Run executes (or recalls) one spec. It blocks until the spec's result
// is available or ctx is done; on cancellation it returns immediately
// with an error Result while any in-flight execution completes into the
// cache for later callers. A context that is already cancelled on entry
// always yields the cancellation error, even if the result is cached.
// The per-spec Timeout bounds the execution itself, independently of
// the caller's context.
func (r *Runner) Run(ctx context.Context, spec Spec) Result {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Result{Spec: spec, Err: err.Error()}
	}
	if err := ctx.Err(); err != nil {
		return Result{Spec: spec, Err: fmt.Sprintf("runner: %v", err)}
	}
	r.obs.runs.Inc()
	e, created := r.results.lookup(spec.Key())
	if created {
		e.val.spec, e.val.rq = spec, reqtrace.FromContext(ctx)
		r.obs.cacheMisses.Inc()
		go r.execute(e)
	} else {
		r.obs.cacheHits.Inc()
	}
	select {
	case <-e.done:
		return e.val.res
	case <-ctx.Done():
		return Result{Spec: spec, Err: fmt.Sprintf("runner: %v", ctx.Err())}
	}
}

// RunAll fans the specs out and returns their results in spec order —
// concurrency never reorders or drops cells. Fan-out is exactly the
// engine's MaxActive wide: a fixed set of launchers pulls spec indices
// from a shared counter, so a sweep keeps every build slot busy, parks
// no goroutine per grid cell, and can never overflow the admission queue
// with its own cells. Launchers block in Run (not on a build slot), so
// duplicated specs sharing one memoized execution cannot deadlock.
func (r *Runner) RunAll(ctx context.Context, specs []Spec) []Result {
	return r.RunAllProgress(ctx, specs, nil)
}

// RunAllProgress is RunAll with a completion callback: done(i, res) fires
// once per spec as its result becomes available, from a launcher
// goroutine — so live progress (the harness's cells-done gauge) can tick
// mid-sweep. done may be nil.
func (r *Runner) RunAllProgress(ctx context.Context, specs []Spec, done func(i int, res Result)) []Result {
	out := make([]Result, len(specs))
	launchers := r.eng.Options().MaxActive
	if launchers > len(specs) {
		launchers = len(specs)
	}
	next := int64(-1)
	var wg sync.WaitGroup
	for w := 0; w < launchers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= len(specs) {
					return
				}
				out[i] = r.Run(ctx, specs[i])
				if done != nil {
					done(i, out[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// execute runs one cache entry to completion. Body generation is kept
// out of the wall clock: body sets are memoized across specs, so
// charging generation to whichever spec ran first would make sweep-cell
// wall times incomparable. GenNs instead reports the full generation
// time of the spec's body set, identically on every spec that shares it.
func (r *Runner) execute(e *flight[run]) {
	spec, rq := e.val.spec, e.val.rq
	r.obs.started.Inc()
	r.obs.inFlight.Add(1)
	// finish publishes the result. Counters settle *before* e.done is
	// closed, so a caller that just saw its Run return can audit the obs
	// counters against the cache without racing them (AuditObs relies on
	// this ordering). Transient results (engine admission rejections) are
	// published to waiters but dropped from the cache, so a later
	// identical request retries once the pressure has passed.
	finish := func(res Result) {
		e.val.res = res
		if res.transient {
			r.results.drop(e)
			r.obs.transientDropped.Add(1)
		}
		r.obs.observeExecuted(res)
		r.obs.inFlight.Add(-1)
		r.results.publish(e)
	}
	// The execution context is fresh (memoized results outlive their
	// initiating request) but carries the initiator's handle so the
	// engine and backend can stamp its queue and build stations.
	ctx := reqtrace.NewContext(context.Background(), rq)
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	start := time.Now()
	res, gen := r.admitAndRun(ctx, spec)
	res.Spec = spec
	res.WallNs = (time.Since(start) - gen).Nanoseconds()
	finish(res)
}

// admitAndRun takes spec's engine slot, then its body set, then runs
// it. Admission comes first, so a spec the engine refuses never
// generates bodies: the body sets being generated or used at once are
// bounded by the slots plus the queue. gen is the time spent obtaining
// the set, which the caller keeps out of WallNs.
func (r *Runner) admitAndRun(ctx context.Context, spec Spec) (res Result, gen time.Duration) {
	var bld core.Builder
	var release func()
	var err error
	if spec.Backend == Native {
		bld, release, err = admit(ctx, spec, r.eng)
	} else {
		// A replay needs no pooled builder, but it is CPU like any
		// build: it holds one of the engine's slots for its duration.
		release, err = r.eng.Admit(ctx)
	}
	if err != nil {
		return admissionResult(spec, err), 0
	}
	genStart := time.Now()
	bodies, genNs, err := r.bodiesFor(spec.Model, spec.Bodies, spec.Seed, spec.Backend == Native)
	gen = time.Since(genStart)
	if err != nil {
		release()
		return Result{Err: err.Error()}, gen
	}
	if spec.Backend == Native {
		res = runNative(ctx, spec, bodies, bld)
		release()
	} else {
		res = runSimulated(ctx, spec, bodies, release, &r.obs.replaysReturned)
	}
	res.GenNs = genNs
	return res, gen
}

// Bodies returns the memoized body system for (model, n, seed) in
// generator order. The returned slice set is shared and must be treated
// as read-only; backends clone before mutating.
func (r *Runner) Bodies(model phys.Model, n int, seed int64) *phys.Bodies {
	b, _, _ := r.bodiesFor(model.String(), n, seed, false) // typed models always parse
	return b
}

// memoKey names a body set, sorted or in generator order, in the memo.
func memoKey(model string, n int, seed int64, sorted bool) string {
	return fmt.Sprintf("%s|%d|%d|sorted=%t", model, n, seed, sorted)
}

// bodiesFor returns the (model, n, seed) body set, sorted by
// core.SortBodies if asked, and the time making it took, making it on a
// memo miss. Concurrent callers of one key share one making; a set larger
// than bodiesCacheBytes is shared while it is made but not held after.
func (r *Runner) bodiesFor(model string, n int, seed int64, sorted bool) (*phys.Bodies, int64, error) {
	f, created := r.bodies.lookup(memoKey(model, n, seed, sorted))
	if !created {
		r.obs.memoHits.Inc()
		<-f.done
		return f.val.b, f.val.genNs, f.val.err
	}
	r.obs.memoMisses.Inc()
	if m, ok := phys.ParseModel(model); ok {
		start := time.Now()
		f.val.b = phys.Generate(m, n, seed)
		if sorted {
			core.SortBodies(f.val.b, nil)
		}
		f.val.genNs = time.Since(start).Nanoseconds()
	} else {
		f.val.err = fmt.Errorf("runner: unknown mass model %q (valid: %s)",
			model, strings.Join(phys.ModelNames(), ", "))
	}
	r.bodies.publish(f)
	return f.val.b, f.val.genNs, f.val.err
}

// Results snapshots every completed result in the cache, sorted by spec
// key, for CSV/JSON dumps.
func (r *Runner) Results() []Result {
	var out []Result
	for _, e := range r.results.completed() {
		out = append(out, e.res)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.Key() < out[j].Spec.Key() })
	return out
}
