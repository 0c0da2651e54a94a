package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/phys"
)

func testInput(n, p int) *core.Input {
	b := phys.Generate(phys.ModelPlummer, n, 42)
	return &core.Input{Bodies: b, Assign: core.EvenAssign(n, p)}
}

func mustAcquire(t *testing.T, e *Engine, k Key) *Session {
	t.Helper()
	s, err := e.Acquire(context.Background(), k)
	if err != nil {
		t.Fatalf("Acquire(%v): %v", k, err)
	}
	return s
}

func TestSessionReuseSameKey(t *testing.T) {
	e := New(Options{MaxActive: 2})
	k := Key{Alg: core.LOCAL, P: 2, LeafCap: 8}
	in := testInput(512, 2)

	s1 := mustAcquire(t, e, k)
	tree, m := s1.Build(in)
	if m.TotalLocks() < 0 || tree.Root.IsNil() {
		t.Fatalf("bad first build")
	}
	s1.Release()

	s2 := mustAcquire(t, e, k)
	if s2 != s1 {
		t.Fatalf("same key did not reuse the pooled session")
	}
	tree2, _ := s2.Build(in)
	d := octree.BodyData{Pos: in.Bodies.Pos, Mass: in.Bodies.Mass}
	if err := octree.Check(tree2, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
		t.Fatalf("reused session built a bad tree: %v", err)
	}
	s2.Release()

	st := e.Stats()
	if e.created.Value() != 1 || e.reused.Value() != 1 {
		t.Fatalf("created=%v reused=%v, want 1/1", e.created.Value(), e.reused.Value())
	}
	if st.Store.RetainedBytes == 0 || st.Store.Cells == 0 {
		t.Fatalf("pooled store reports no retained memory: %+v", st.Store)
	}
}

func TestDistinctKeysDistinctSessions(t *testing.T) {
	e := New(Options{MaxActive: 4})
	s1 := mustAcquire(t, e, Key{Alg: core.LOCAL, P: 2, LeafCap: 8})
	s2 := mustAcquire(t, e, Key{Alg: core.SPACE, P: 2, LeafCap: 8})
	s3 := mustAcquire(t, e, Key{Alg: core.LOCAL, P: 4, LeafCap: 8})
	if s1 == s2 || s1 == s3 || s2 == s3 {
		t.Fatalf("distinct keys shared a session")
	}
	s1.Release()
	s2.Release()
	s3.Release()
	if st := e.Stats(); e.created.Value() != 3 || st.Idle != 3 {
		t.Fatalf("created=%v idle=%v, want 3/3", e.created.Value(), st.Idle)
	}
}

func TestKeyNormalization(t *testing.T) {
	e := New(Options{MaxActive: 2})
	s1 := mustAcquire(t, e, Key{Alg: core.LOCAL}) // zero P/LeafCap
	s1.Release()
	s2 := mustAcquire(t, e, Key{Alg: core.LOCAL, P: 1, LeafCap: 8})
	defer s2.Release()
	if s1 != s2 {
		t.Fatalf("normalized-equal keys did not pool together")
	}
}

func TestConcurrentAcquireSameKeyGetsFreshSessions(t *testing.T) {
	e := New(Options{MaxActive: 2})
	k := Key{Alg: core.PARTREE, P: 2, LeafCap: 8}
	s1 := mustAcquire(t, e, k)
	s2 := mustAcquire(t, e, k) // s1 still held: must not be shared
	if s1 == s2 {
		t.Fatalf("held session handed out twice")
	}
	s1.Release()
	s2.Release()
}

// queueBehind starts n goroutines that each wait for k behind whatever
// holds the slots, then release at once; it returns when all n are
// queued, and the channel carries each one's acquire error.
func queueBehind(t *testing.T, e *Engine, k Key, n int) <-chan error {
	t.Helper()
	queued := e.Stats().Queued
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			s, err := e.Acquire(context.Background(), k)
			if err == nil {
				s.Release()
			}
			errs <- err
		}()
	}
	waitQueued(t, e, queued+int64(n))
	return errs
}

func TestAdmissionQueueFullAndDeadline(t *testing.T) {
	e := New(Options{MaxActive: 1})
	k := Key{Alg: core.LOCAL, P: 1, LeafCap: 8}
	held := mustAcquire(t, e, k)

	// 4×MaxActive waiters are admitted to the queue...
	waiters := queueBehind(t, e, k, queuePerSlot)

	// ...the next is rejected immediately.
	if _, err := e.Acquire(context.Background(), k); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue acquire: got %v, want ErrQueueFull", err)
	}

	// A queued acquire honors its context deadline. (It occupies a queue
	// place only briefly; run it after the rejection check above.)
	held.Release()
	for i := 0; i < queuePerSlot; i++ {
		if err := <-waiters; err != nil {
			t.Fatalf("queued waiter: %v", err)
		}
	}
	s := mustAcquire(t, e, k)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := e.Acquire(ctx, k); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline acquire: got %v, want DeadlineExceeded", err)
	}
	s.Release()

	if e.rejectedFull.Value() != 1 || e.rejectedCancelled.Value() != 1 {
		t.Fatalf("rejections full=%v cancelled=%v, want 1/1", e.rejectedFull.Value(), e.rejectedCancelled.Value())
	}
}

func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	e := New(Options{MaxActive: 2})
	k := Key{Alg: core.SPACE, P: 2, LeafCap: 8}
	held := mustAcquire(t, e, k)

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- e.Drain(ctx)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !e.Stats().Draining {
		if time.Now().After(deadline) {
			t.Fatalf("drain never marked the engine draining")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := e.Acquire(context.Background(), k); !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain: got %v, want ErrDraining", err)
	}

	// The in-flight session finishes its work and releases; only then
	// does Drain return.
	select {
	case err := <-drainErr:
		t.Fatalf("drain returned before the in-flight build released: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	held.Release()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := e.Stats()
	if st.Idle != 0 || st.InUse != 0 {
		t.Fatalf("post-drain idle=%d inUse=%d, want 0/0", st.Idle, st.InUse)
	}
	// Drain again: idempotent.
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestMaxIdleEvictsLRU releases maxIdle+1 sessions of distinct keys,
// oldest first: the pool keeps the newest maxIdle and evicts the oldest.
func TestMaxIdleEvictsLRU(t *testing.T) {
	e := New(Options{MaxActive: 1})
	keys := make([]Key, maxIdle+1)
	var first *Session
	for i := range keys {
		keys[i] = Key{Alg: core.LOCAL, P: 1, LeafCap: i + 1}
		s := mustAcquire(t, e, keys[i])
		if i == 0 {
			first = s
		}
		s.Release()
	}

	st := e.Stats()
	if e.evicted.Value() != 1 || st.Idle != maxIdle {
		t.Fatalf("evicted=%v idle=%v, want 1/%d", e.evicted.Value(), st.Idle, maxIdle)
	}
	if got := mustAcquire(t, e, keys[0]); got == first {
		t.Fatalf("evicted session came back from the pool")
	} else {
		got.Release()
	}
}

// TestUpdateSessionServesFreshRequests checks the reuse contract for the
// stateful builder: UPDATE keeps its tree between steps, but a new
// request starting at Step 0 must rebuild from scratch and verify clean
// even on a pooled session that previously served a different body set.
func TestUpdateSessionServesFreshRequests(t *testing.T) {
	e := New(Options{MaxActive: 1})
	k := Key{Alg: core.UPDATE, P: 2, LeafCap: 8}

	s := mustAcquire(t, e, k)
	inA := testInput(700, 2)
	s.Build(inA) // step 0: fresh build
	inA.Step = 1
	s.Build(inA) // step 1: incremental repair
	s.Release()

	s2 := mustAcquire(t, e, k)
	if s2 != s {
		t.Fatalf("UPDATE session not pooled")
	}
	inB := testInput(1200, 2) // different size, new request
	tree, _ := s2.Build(inB)
	d := octree.BodyData{Pos: inB.Bodies.Pos, Mass: inB.Bodies.Mass}
	if err := octree.Check(tree, d, octree.CheckOptions{Canonical: true, Moments: true}); err != nil {
		t.Fatalf("pooled UPDATE session failed a fresh step-0 request: %v", err)
	}
	s2.Release()
}

// waitQueued polls until n callers are waiting for a build slot.
func waitQueued(t *testing.T, e *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Queued != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, never reached %d", e.Stats().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainWakesQueuedAcquire pins the one wait's drain-wake for
// one-shot callers: an Acquire queued behind a held slot must come back
// with ErrDraining the moment Drain starts, not sit in the queue until
// the holder releases and Drain has seized the slot.
func TestDrainWakesQueuedAcquire(t *testing.T) {
	e := New(Options{MaxActive: 1})
	k := Key{Alg: core.LOCAL, P: 1, LeafCap: 8}
	held := mustAcquire(t, e, k)

	queuedErr := make(chan error, 1)
	go func() {
		_, err := e.Acquire(context.Background(), k)
		queuedErr <- err
	}()
	waitQueued(t, e, 1)

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainErr <- e.Drain(ctx)
	}()
	// held is not released yet: only drainCh can wake the waiter.
	select {
	case err := <-queuedErr:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("queued acquire during drain: %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued acquire still waiting after Drain began (holder not released)")
	}
	held.Release()
	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := e.Stats(); st.Queued != 0 || e.rejectedDraining.Value() != 1 {
		t.Fatalf("post-drain queued=%v rejectedDraining=%v, want 0/1", st.Queued, e.rejectedDraining.Value())
	}
}

// TestAdmitSharesTheBudget checks the session-less gate is the same gate:
// an Admit holder blocks Acquires, is shed past the queue bound like
// one, and refuses once draining.
func TestAdmitSharesTheBudget(t *testing.T) {
	e := New(Options{MaxActive: 1})
	k := Key{Alg: core.LOCAL, P: 1, LeafCap: 8}
	release, err := e.Admit(context.Background())
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	waiters := queueBehind(t, e, k, queuePerSlot)
	if _, err := e.Admit(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-queue Admit: %v, want ErrQueueFull", err)
	}
	release()
	for i := 0; i < queuePerSlot; i++ {
		if err := <-waiters; err != nil {
			t.Fatalf("Acquire queued behind an Admit holder: %v", err)
		}
	}
	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := e.Admit(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Admit after drain: %v, want ErrDraining", err)
	}
}
