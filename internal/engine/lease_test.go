package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/phys"
	"partree/internal/reqtrace"
)

func testStepper(t *testing.T, n, p int, seed int64) *core.Stepper {
	t.Helper()
	b := phys.Generate(phys.ModelPlummer, n, seed)
	return core.NewStepper(core.Config{P: p, LeafCap: 8}, b, core.FallbackPolicy{})
}

func TestLeaseLifecycle(t *testing.T) {
	e := New(Options{MaxActive: 2})
	l, err := e.OpenLease(testStepper(t, 500, 2, 1), time.Minute)
	if err != nil {
		t.Fatalf("OpenLease: %v", err)
	}
	for i := 0; i < 5; i++ {
		if i > 0 {
			l.Stepper().Bodies().Drift(0, 500, 0.01)
		}
		res, err := l.Step(context.Background(), core.StepInput{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if res.Step != i {
			t.Fatalf("step %d: result.Step = %d", i, res.Step)
		}
		if (i == 0) != res.Fresh {
			t.Fatalf("step %d: fresh = %v", i, res.Fresh)
		}
	}
	st := e.Stats()
	if st.LeasesActive != 1 || e.leasesOpened.Value() != 1 {
		t.Fatalf("stats: active=%v opened=%v, want 1/1", st.LeasesActive, e.leasesOpened.Value())
	}
	if st.Store.Leaves == 0 {
		t.Fatal("stats: lease's resident store not aggregated")
	}
	l.Close()
	if _, err := l.Step(context.Background(), core.StepInput{}); !errors.Is(err, ErrLeaseClosed) {
		t.Fatalf("step after close: %v, want ErrLeaseClosed", err)
	}
	l.Close() // idempotent
	st = e.Stats()
	if st.LeasesActive != 0 || e.leasesClosed.Value() != 1 {
		t.Fatalf("stats after close: active=%v closed=%v, want 0/1", st.LeasesActive, e.leasesClosed.Value())
	}
}

func TestLeaseCapacity(t *testing.T) {
	e := New(Options{MaxActive: 2, MaxLeases: 2})
	l1, err := e.OpenLease(testStepper(t, 100, 1, 1), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenLease(testStepper(t, 100, 1, 2), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenLease(testStepper(t, 100, 1, 3), time.Minute); !errors.Is(err, ErrLeasesFull) {
		t.Fatalf("third open: %v, want ErrLeasesFull", err)
	}
	if got := e.leaseRejected.Value(); got != 1 {
		t.Fatalf("LeaseRejected = %v, want 1", got)
	}
	l1.Close()
	if _, err := e.OpenLease(testStepper(t, 100, 1, 4), time.Minute); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

// TestLeaseIdleEviction: an idle lease's timer evicts it once its own
// deadline — one idle timeout after its last step ended — has passed,
// and not before.
func TestLeaseIdleEviction(t *testing.T) {
	const idle = 50 * time.Millisecond
	e := New(Options{MaxActive: 2})
	l, err := e.OpenLease(testStepper(t, 200, 1, 1), idle)
	if err != nil {
		t.Fatal(err)
	}
	stepStart := time.Now()
	if _, err := l.Step(context.Background(), core.StepInput{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("idle lease was never evicted")
	}
	// The step's end set the deadline, after stepStart.
	if early := idle - time.Since(stepStart); early > 0 {
		t.Fatalf("evicted %v before its deadline", early)
	}
	if !l.Evicted() {
		t.Fatal("Done fired but lease not marked evicted")
	}
	if _, err := l.Step(context.Background(), core.StepInput{}); !errors.Is(err, ErrLeaseEvicted) {
		t.Fatalf("step after eviction: %v, want ErrLeaseEvicted", err)
	}
	st := e.Stats()
	if e.leasesEvicted.Value() != 1 || st.LeasesActive != 0 {
		t.Fatalf("stats: evicted=%v active=%v, want 1/0", e.leasesEvicted.Value(), st.LeasesActive)
	}
}

// TestLeaseStepKeepsAlive steps more often than the idle timeout and
// checks the timer leaves the lease alone: every step's end must
// actually move the eviction point.
func TestLeaseStepKeepsAlive(t *testing.T) {
	e := New(Options{MaxActive: 2})
	l, err := e.OpenLease(testStepper(t, 200, 1, 1), 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := l.Step(context.Background(), core.StepInput{}); err != nil {
			t.Fatalf("live lease evicted under active stepping: %v", err)
		}
		time.Sleep(15 * time.Millisecond)
	}
	l.Close()
}

// TestLeaseTimerNeverEvictsClosed: once a lease is closed by its owner
// or by a drain, its timer never evicts it, however long after its
// deadline.
func TestLeaseTimerNeverEvictsClosed(t *testing.T) {
	const idle = 20 * time.Millisecond
	e := New(Options{MaxActive: 1})
	closed, err := e.OpenLease(testStepper(t, 100, 1, 1), idle)
	if err != nil {
		t.Fatal(err)
	}
	drained, err := e.OpenLease(testStepper(t, 100, 1, 2), idle)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := closed.Step(context.Background(), core.StepInput{}); err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	time.Sleep(5 * idle)
	for name, l := range map[string]*Lease{"closed": closed, "drained": drained} {
		if l.Evicted() {
			t.Errorf("%s lease was evicted by its timer", name)
		}
		if _, err := l.Step(context.Background(), core.StepInput{}); !errors.Is(err, ErrLeaseClosed) {
			t.Errorf("%s lease step: %v, want ErrLeaseClosed", name, err)
		}
	}
	if got := e.leasesEvicted.Value(); got != 0 || e.leasesClosed.Value() != 2 {
		t.Fatalf("evicted=%v closed=%v, want 0/2", got, e.leasesClosed.Value())
	}
}

// TestLeaseDrain checks the drain contract: a step waiting for a build
// slot aborts with ErrDraining instead of deadlocking against Drain's
// slot seizure, and every lease's Done fires.
func TestLeaseDrain(t *testing.T) {
	e := New(Options{MaxActive: 1})
	l, err := e.OpenLease(testStepper(t, 200, 1, 1), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only build slot with a one-shot session.
	s, err := e.Acquire(context.Background(), Key{Alg: core.ORIG, P: 1})
	if err != nil {
		t.Fatal(err)
	}
	stepErr := make(chan error, 1)
	go func() {
		_, err := l.Step(context.Background(), core.StepInput{})
		stepErr <- err
	}()
	// Give the step time to block on the slot, then drain. Drain cannot
	// seize the slot until the one-shot releases, so the waiting step
	// must be woken by drainCh, not by a token.
	time.Sleep(20 * time.Millisecond)
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- e.Drain(ctx)
	}()
	if err := <-stepErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("step during drain: %v, want ErrDraining", err)
	}
	s.Release()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case <-l.Done():
	case <-time.After(time.Second):
		t.Fatal("lease Done did not fire on drain")
	}
	if _, err := e.OpenLease(testStepper(t, 100, 1, 2), time.Minute); !errors.Is(err, ErrDraining) {
		t.Fatalf("open after drain: %v, want ErrDraining", err)
	}
}

// TestLeaseContention hammers the engine from both sides at once —
// streaming sessions stepping and one-shot builds acquiring — to give
// the race detector something to chew on and to check the shared
// MaxActive budget never wedges.
func TestLeaseContention(t *testing.T) {
	// The one-shots come from oneShotters goroutines, 5 each: with every
	// lease and every one-shotter waiting, the queue holds
	// leases+oneShotters = 4×MaxActive, so nothing is shed.
	const leases, stepsEach, oneShotters = 8, 20, 8
	e := New(Options{MaxActive: 4, MaxLeases: leases})
	var wg sync.WaitGroup
	for i := 0; i < leases; i++ {
		l, err := e.OpenLease(testStepper(t, 300, 2, int64(i)), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(l *Lease) {
			defer wg.Done()
			defer l.Close()
			for s := 0; s < stepsEach; s++ {
				l.Stepper().Bodies().Drift(0, 300, 0.01)
				if _, err := l.Step(context.Background(), core.StepInput{}); err != nil {
					t.Errorf("lease step: %v", err)
					return
				}
			}
		}(l)
	}
	for i := 0; i < oneShotters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				s, err := e.Acquire(context.Background(), Key{Alg: core.SPACE, P: 2})
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				b := phys.Generate(phys.ModelPlummer, 300, int64(5*i+j))
				s.Build(&core.Input{Bodies: b, Assign: core.EvenAssign(300, 2)})
				s.Release()
			}
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.InUse != 0 || st.Queued != 0 {
		t.Fatalf("quiesced stats: inUse=%d queued=%d, want 0/0", st.InUse, st.Queued)
	}
	if st.LeasesActive != 0 || e.leasesOpened.Value() != leases {
		t.Fatalf("lease stats: active=%v opened=%v, want 0/%v", st.LeasesActive, e.leasesOpened.Value(), leases)
	}
}

// TestLeaseStepWaitIsTheOneQueue checks a step waiting for a build slot
// goes through the same wait as a one-shot acquire: it is visible in
// Stats().Queued (partree_engine_queue_depth), stamps exactly one
// queue span on its request — and, admitted at OpenLease, is not shed
// by the full queue that refuses a one-shot arriving behind it.
func TestLeaseStepWaitIsTheOneQueue(t *testing.T) {
	e := New(Options{MaxActive: 1})
	l, err := e.OpenLease(testStepper(t, 200, 1, 1), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l2, err := e.OpenLease(testStepper(t, 200, 1, 2), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	k := Key{Alg: core.ORIG, P: 1}
	held := mustAcquire(t, e, k)
	// Runs before the deferred Closes, which would otherwise block behind
	// a step still waiting for the slot if an assertion fails early.
	released := false
	defer func() {
		if !released {
			held.Release()
		}
	}()

	rq := reqtrace.NewRecorder().Start("00000000000000000000000000000003", "/v1/session")
	stepErr := make(chan error, 2)
	go func() {
		_, err := l.Step(reqtrace.NewContext(context.Background(), rq), core.StepInput{})
		stepErr <- err
	}()
	waitQueued(t, e, 1)
	// One-shots fill the rest of the queue: the next one-shot is shed, a
	// second step is not.
	waiters := queueBehind(t, e, k, queuePerSlot-1)
	if _, err := e.Acquire(context.Background(), k); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("one-shot behind a full queue: %v, want ErrQueueFull", err)
	}
	go func() {
		_, err := l2.Step(context.Background(), core.StepInput{})
		stepErr <- err
	}()
	waitQueued(t, e, queuePerSlot+1)

	held.Release()
	released = true
	for i := 0; i < 2; i++ {
		if err := <-stepErr; err != nil {
			t.Fatalf("waiting step: %v", err)
		}
	}
	for i := 0; i < queuePerSlot-1; i++ {
		if err := <-waiters; err != nil {
			t.Fatalf("waiting one-shot: %v", err)
		}
	}
	var queues int
	for _, s := range rq.Entry().Spans {
		if s.Name == "queue" {
			queues++
		}
	}
	if queues != 1 {
		t.Fatalf("waiting step stamped %d queue spans, want 1", queues)
	}
	if st := e.Stats(); st.Queued != 0 {
		t.Fatalf("queued = %d after the steps ran, want 0", st.Queued)
	}
}

// TestLeaseDeadlineMidStep: a lease whose deadline passes while its
// step waits for a slot (holding the lease busy) is not evicted during
// that step; the step's end re-arms the timer, which evicts one idle
// timeout later and not before.
func TestLeaseDeadlineMidStep(t *testing.T) {
	const idle = 50 * time.Millisecond
	// slack absorbs scheduler noise on a loaded host.
	const slack = 500 * time.Millisecond
	e := New(Options{MaxActive: 1})
	l, err := e.OpenLease(testStepper(t, 200, 1, 1), idle)
	if err != nil {
		t.Fatal(err)
	}
	held := mustAcquire(t, e, Key{Alg: core.ORIG, P: 1})
	stepped := make(chan error, 1)
	go func() {
		_, err := l.Step(context.Background(), core.StepInput{})
		stepped <- err
	}()
	waitQueued(t, e, 1)
	time.Sleep(3 * idle)
	released := time.Now()
	held.Release()
	if err := <-stepped; err != nil {
		t.Fatalf("busy lease was evicted under its own step: %v", err)
	}
	stepEnd := time.Now()
	select {
	case <-l.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("idle lease was never evicted")
	}
	// The step ended, and re-armed the timer, between released and
	// stepEnd.
	if early := idle - time.Since(released); early > 0 {
		t.Fatalf("evicted %v before its re-armed deadline", early)
	}
	if after := time.Since(stepEnd); after > idle+slack {
		t.Fatalf("evicted %v after the step ended, want about %v", after, idle)
	}
	if !l.Evicted() {
		t.Fatal("Done fired but lease not marked evicted")
	}
}
