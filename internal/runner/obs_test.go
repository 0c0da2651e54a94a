package runner

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/obs"
)

// TestObsConservationConcurrent hammers one runner from several RunAll
// sweeps with duplicated specs plus a burst of direct Run calls, then
// checks the live counters against the result cache exactly — the
// runner-level conservation law (companion to internal/verify's six
// metrics laws): every request is a hit or a miss, every miss is exactly
// one execution, every execution ends completed or failed, and the idle
// gauges read zero.
func TestObsConservationConcurrent(t *testing.T) {
	r := New(3)

	var specs []Spec
	for rep := 0; rep < 3; rep++ { // duplicates share one execution
		for _, alg := range core.Algorithms() {
			specs = append(specs, simSpec(alg, 2, 256))
		}
	}
	// One spec that reaches execution and fails there (validation errors
	// never reach the cache, so they must stay invisible to the counters).
	failing := Spec{Backend: Native, Alg: core.SPACE, Procs: 2, Bodies: 1024,
		Steps: 8, Seed: 3, Timeout: time.Nanosecond}
	specs = append(specs, failing)

	const sweeps, directs = 4, 8
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.RunAll(context.Background(), specs)
		}()
	}
	for i := 0; i < directs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Run(context.Background(), specs[0])
		}()
	}
	wg.Wait()

	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
	o := r.obs
	results := r.Results()

	uniq := len(core.Algorithms()) + 1 // 5 shared sim specs + the failing native one
	if len(results) != uniq {
		t.Fatalf("cache holds %d results, want %d", len(results), uniq)
	}
	runs := float64(sweeps*len(specs) + directs)
	if got := o.runs.Value(); got != runs {
		t.Fatalf("runs = %v, want %v", got, runs)
	}
	if got := o.cacheMisses.Value(); got != float64(uniq) {
		t.Fatalf("misses = %v, want %d", got, uniq)
	}
	if got := o.cacheHits.Value(); got != runs-float64(uniq) {
		t.Fatalf("hits = %v, want %v", got, runs-float64(uniq))
	}
	if s, c, f := o.started.Value(), o.completed.Value(), o.failed.Value(); s != float64(uniq) || c != float64(uniq-1) || f != 1 {
		t.Fatalf("started/completed/failed = %v/%v/%v, want %d/%d/1", s, c, f, uniq, uniq-1)
	}
	if es := r.Engine().Stats(); es.Queued != 0 || es.InUse != 0 || o.inFlight.Load() != 0 {
		t.Fatalf("idle gauges nonzero: engine queue=%d in-use=%d, runner in-flight=%d", es.Queued, es.InUse, o.inFlight.Load())
	}
	if got := o.specSeconds.With(string(Native)).Count() + o.specSeconds.With(string(Simulated)).Count(); got != uint64(uniq) {
		t.Fatalf("duration observations = %d, want %d", got, uniq)
	}
	// Two distinct (model, n, seed) body sets: the shared sim bodies and
	// the failing native spec's. Every execution asked for one set.
	if got := o.memoMisses.Value(); got != 2 {
		t.Fatalf("body memo misses = %v, want 2", got)
	}
	if got := o.memoHits.Value(); got != float64(uniq)-2 {
		t.Fatalf("body memo hits = %v, want %d", got, uniq-2)
	}

	var failed int
	for _, res := range results {
		if res.Failed() {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("cache holds %d failed results, want 1", failed)
	}
}

// TestObsInFlightVisibleMidRun observes the in-flight gauge from outside
// while an execution holds a build slot, then checks it settles back to
// zero before Run returns (the accounting-before-done ordering).
func TestObsInFlightVisibleMidRun(t *testing.T) {
	r := New(1)
	spec := Spec{Backend: Native, Alg: core.LOCAL, Procs: 2, Bodies: 131072,
		Steps: 3, Seed: 11, BuildOnly: true}
	done := make(chan Result, 1)
	go func() { done <- r.Run(context.Background(), spec) }()

	deadline := time.After(10 * time.Second)
	for r.obs.inFlight.Load() == 0 {
		select {
		case res := <-done:
			// The spec finished before we looked — the gauge must already
			// have settled, which the audit below still verifies.
			if res.Failed() {
				t.Fatalf("run failed: %s", res.Err)
			}
			if err := r.AuditObs(); err != nil {
				t.Fatal(err)
			}
			return
		case <-deadline:
			t.Fatal("in-flight gauge never rose")
		default:
			time.Sleep(100 * time.Microsecond)
		}
	}

	res := <-done
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Err)
	}
	// Counters settle before e.done closes, so immediately after Run
	// returns the audit must already balance.
	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
	if s, c, f := r.obs.started.Value(), r.obs.completed.Value(), r.obs.inFlight.Load(); s != 1 || c != 1 || f != 0 {
		t.Fatalf("post-run started/completed/in-flight = %v/%v/%d, want 1/1/0", s, c, f)
	}
}

// TestRegisterObsRendersRunnerSeries registers a warmed runner on a
// fresh registry and checks the scrape carries its counters with the
// exact cache-derived values, plus its engine's gauges and the
// per-algorithm build totals — one call registers all three.
func TestRegisterObsRendersRunnerSeries(t *testing.T) {
	r := New(2)
	res := r.Run(context.Background(), Spec{Backend: Native, Alg: core.ORIG, Procs: 2,
		Bodies: 2048, Steps: 2, Seed: 5, BuildOnly: true})
	if res.Failed() {
		t.Fatalf("warmup failed: %s", res.Err)
	}
	r.Run(context.Background(), res.Spec) // one cache hit

	reg := obs.NewRegistry()
	if err := r.RegisterObs(reg); err != nil {
		t.Fatal(err)
	}
	// Re-registering the same runner on the same registry must collide on
	// the metric names.
	if err := r.RegisterObs(reg); err == nil {
		t.Fatal("duplicate registration accepted")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"partree_runner_runs_total 2",
		"partree_runner_cache_hits_total 1",
		"partree_runner_cache_misses_total 1",
		"partree_runner_specs_completed_total 1",
		"partree_runner_in_flight 0",
		"partree_engine_max_active 2",
		"partree_engine_queue_depth 0",
		`partree_runner_spec_duration_seconds_count{backend="native"} 1`,
		`partree_build_total{alg="ORIG"}`,
		`partree_build_locks_total{alg="ORIG"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
