package runner

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
)

// TestUnknownModelRejected is the regression test for bodiesFor silently
// generating bodies from the zero-value model: an invalid -model must be
// rejected at validation, and the generation layer itself must propagate
// the parse error rather than swallow it.
func TestUnknownModelRejected(t *testing.T) {
	spec := Spec{Backend: Native, Alg: core.LOCAL, Procs: 1, Bodies: 64, Steps: 1, Model: "bogus"}
	res := New(0).Run(context.Background(), spec)
	if !res.Failed() || !strings.Contains(res.Err, `unknown mass model "bogus"`) {
		t.Fatalf("bogus model accepted: %+v", res)
	}
	for _, m := range []phys.Model{phys.ModelPlummer, phys.ModelUniform, phys.ModelTwoClusters} {
		if !strings.Contains(res.Err, m.String()) {
			t.Fatalf("error %q does not list valid model %s", res.Err, m)
		}
	}

	r := New(0)
	b, _, err := r.bodiesFor("bogus", 64, 1)
	if err == nil || b != nil {
		t.Fatalf("bodiesFor generated %v bodies from an unknown model (err %v)", b, err)
	}
	// The error is memoized like a body set: the second caller sees it too.
	if _, _, err2 := r.bodiesFor("bogus", 64, 1); err2 == nil {
		t.Fatal("memoized bodiesFor error lost on second call")
	}
}

// TestRunAllBoundedFanOut pins the fix for RunAll launching one goroutine
// per spec: under bounded fan-out at most `workers` specs can be in
// flight (entered into the cache but not yet complete) at any instant,
// whereas the old regime enqueued all cells immediately. Results must
// still come back in spec order.
func TestRunAllBoundedFanOut(t *testing.T) {
	const workers, cells = 4, 64
	r := New(workers)
	specs := make([]Spec, cells)
	for i := range specs {
		specs[i] = Spec{Backend: Simulated, Platform: "challenge", Alg: core.LOCAL,
			Procs: 2, Bodies: 512, Steps: 1, Seed: int64(i + 1)}
	}

	peak := int64(0)
	stop := make(chan struct{})
	var mon sync.WaitGroup
	mon.Add(1)
	go func() {
		defer mon.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			pending := int64(0)
			r.results.mu.Lock()
			for _, e := range r.results.entries {
				select {
				case <-e.done:
				default:
					pending++
				}
			}
			r.results.mu.Unlock()
			if pending > atomic.LoadInt64(&peak) {
				atomic.StoreInt64(&peak, pending)
			}
			runtime.Gosched()
		}
	}()
	results := r.RunAll(context.Background(), specs)
	close(stop)
	mon.Wait()

	for i, res := range results {
		if res.Failed() {
			t.Fatalf("cell %d failed: %s", i, res.Err)
		}
		if res.Spec.Seed != specs[i].Seed {
			t.Fatalf("result %d is for seed %d, want %d", i, res.Spec.Seed, specs[i].Seed)
		}
	}
	if p := atomic.LoadInt64(&peak); p == 0 || p > workers {
		t.Fatalf("peak of %d specs in flight for %d cells (worker bound %d): fan-out is not bounded",
			p, cells, workers)
	}
}

// TestGenNsSeparateFromWall pins the fix for memoized body generation
// being charged to whichever spec ran first: every spec sharing a body
// set reports the same generation time, outside WallNs.
func TestGenNsSeparateFromWall(t *testing.T) {
	r := New(1)
	first := r.Run(context.Background(), simSpec(core.LOCAL, 2, 8192))
	second := r.Run(context.Background(), simSpec(core.SPACE, 2, 8192))
	if first.Failed() || second.Failed() {
		t.Fatalf("runs failed: %q %q", first.Err, second.Err)
	}
	if first.GenNs <= 0 {
		t.Fatalf("generation time not reported: %d", first.GenNs)
	}
	if first.GenNs != second.GenNs {
		t.Fatalf("specs sharing one body set report different GenNs: %d vs %d",
			first.GenNs, second.GenNs)
	}
	if first.WallNs <= 0 || second.WallNs <= 0 {
		t.Fatalf("wall times missing: %d %d", first.WallNs, second.WallNs)
	}
}

// TestRunStressSharedSpec hammers one spec from many goroutines with a
// mix of cancelled and live contexts: the spec must execute exactly once,
// every live caller must see the same completed result, and cancelled
// callers must get an error without poisoning the cache.
func TestRunStressSharedSpec(t *testing.T) {
	r := New(2)
	spec := simSpec(core.ORIG, 2, 512)
	const callers = 64
	results := make([]Result, callers)
	cancelled := make([]bool, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			if i%3 == 0 {
				c, cancel := context.WithCancel(ctx)
				cancel()
				ctx, cancelled[i] = c, true
			}
			results[i] = r.Run(ctx, spec)
		}(i)
	}
	wg.Wait()

	if n := r.obs.started.Value(); n != 1 {
		t.Fatalf("spec executed %v times, want exactly 1", n)
	}
	var want Result
	for i := range results {
		if cancelled[i] {
			continue
		}
		want = results[i]
		break
	}
	if want.Failed() {
		t.Fatalf("live caller failed: %s", want.Err)
	}
	for i, res := range results {
		if cancelled[i] {
			if !res.Failed() || !strings.Contains(res.Err, "context canceled") {
				t.Fatalf("cancelled caller %d got %+v", i, res)
			}
			continue
		}
		if res.TotalNs != want.TotalNs || res.LocksTotal != want.LocksTotal {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	// The execution a cancelled caller abandoned still completed into the
	// cache: a later call recalls it without re-executing.
	late := r.Run(context.Background(), spec)
	if late.Failed() || late.TotalNs != want.TotalNs {
		t.Fatalf("lost result: %+v", late)
	}
	if n := r.obs.started.Value(); n != 1 {
		t.Fatalf("late recall re-executed the spec (%v executions)", n)
	}
}

// TestCheckedSpecsPass runs Check-enabled specs through both backends:
// pristine builds must verify, and the flag must be part of the cache
// identity so checked and unchecked runs don't alias.
func TestCheckedSpecsPass(t *testing.T) {
	r := New(0)
	native := Spec{Backend: Native, Alg: core.SPACE, Procs: 4, Bodies: 1024, Steps: 2, Seed: 3, Check: true}
	build := Spec{Backend: Native, Alg: core.UPDATE, Procs: 2, Bodies: 512, Steps: 2, Seed: 3, BuildOnly: true, Check: true}
	sim := simSpec(core.PARTREE, 2, 512)
	sim.Check = true
	for _, spec := range []Spec{native, build, sim} {
		res := r.Run(context.Background(), spec)
		if res.Failed() {
			t.Fatalf("%v: %s", spec, res.FailureMessage())
		}
	}
	unchecked := native
	unchecked.Check = false
	if unchecked.Key() == native.Key() {
		t.Fatal("Check is not part of the spec identity")
	}
}

// TestSimulatedSpecsTakeAnEngineSlot pins the closed bypass: a simulated
// replay holds one of the engine's build slots like any build, so with
// MaxActive 1 two of them through one runner never overlap. While the
// test holds the only slot neither may run (both show in the engine's
// queue); released, they run one at a time — the second is still queued
// while the first replays.
func TestSimulatedSpecsTakeAnEngineSlot(t *testing.T) {
	r := New(1)
	eng := r.Engine()
	release, err := eng.Admit(context.Background())
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	done := make(chan Result, 2)
	for _, n := range []int{2048, 2049} {
		go func(n int) { done <- r.Run(context.Background(), simSpec(core.SPACE, 2, n)) }(n)
	}
	waitQueued := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for eng.Stats().Queued != n {
			if time.Now().After(deadline) {
				t.Fatalf("engine queue = %d, never reached %d", eng.Stats().Queued, n)
			}
			runtime.Gosched()
		}
	}
	waitQueued(2)
	select {
	case res := <-done:
		t.Fatalf("simulated spec %s ran without a build slot", res.Spec)
	default:
	}
	release()
	waitQueued(1) // one replays, the other still waits for the slot
	for i := 0; i < 2; i++ {
		if res := <-done; res.Failed() {
			t.Fatalf("simulated spec failed: %s", res.Err)
		}
	}
	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
}
