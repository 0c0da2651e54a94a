package runner

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/phys"
)

// memoHolds reports which of the seeds' uniform n-body sets the memo
// holds, without touching its LRU order.
func memoHolds(r *Runner, n int, seeds ...int64) []bool {
	r.bodies.mu.Lock()
	defer r.bodies.mu.Unlock()
	out := make([]bool, len(seeds))
	for i, s := range seeds {
		_, out[i] = r.bodies.entries[memoKey("uniform", n, s)]
	}
	return out
}

// TestBodyMemoEvictsByBytes fills a memo bounded at three 1 000-body
// sets: the least recently used set goes first, and one set twice the
// size evicts two — the bound is in bytes, not entries.
func TestBodyMemoEvictsByBytes(t *testing.T) {
	const n = 1000
	r := New(1)
	small := phys.NewBodies(n).Bytes()
	r.bodies.max = 3 * small
	get := func(n int, seed int64) {
		t.Helper()
		if _, _, err := r.bodiesFor("uniform", n, seed); err != nil {
			t.Fatal(err)
		}
		if got := r.bodies.charged(); got > r.bodies.max {
			t.Fatalf("memo holds %d bytes, past its bound %d", got, r.bodies.max)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		get(n, seed)
	}
	if got := r.bodies.charged(); got != 3*small {
		t.Fatalf("memo holds %d bytes, want 3 sets = %d", got, 3*small)
	}
	get(n, 1) // a hit: seed 2 is now the least recently used
	get(n, 4)
	if got, want := memoHolds(r, n, 1, 2, 3, 4), []bool{true, false, true, true}; !slices.Equal(got, want) {
		t.Fatalf("held seeds 1..4 = %v, want %v (seed 2 was least recently used)", got, want)
	}
	get(2*n, 5) // twice the bytes: seeds 3 and 1 make room
	if got, want := memoHolds(r, n, 1, 3, 4), []bool{false, false, true}; !slices.Equal(got, want) {
		t.Fatalf("held seeds 1, 3, 4 = %v, want %v", got, want)
	}
	if got := r.bodies.charged(); got != 3*small {
		t.Fatalf("memo holds %d bytes, want %d", got, 3*small)
	}
	if h, m, ev := r.obs.memoHits.Value(), r.obs.memoMisses.Value(), r.bodies.evictions.Value(); h != 1 || m != 5 || ev != 3 {
		t.Fatalf("memo hits/misses/evictions = %v/%v/%v, want 1/5/3", h, m, ev)
	}
	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
}

// TestOversizedBodySetIsSharedNotHeld gives the memo a budget smaller
// than one set: a lookup that arrives while the set is being generated
// shares that generation, the set is dropped once it completes, and the
// next request generates it again.
func TestOversizedBodySetIsSharedNotHeld(t *testing.T) {
	const n = 1000
	r := New(1)
	r.bodies.max = phys.NewBodies(n).Bytes() - 1

	// A generation in flight, as bodiesFor starts one.
	f, created := r.bodies.lookup(memoKey("uniform", n, 9))
	if !created {
		t.Fatal("fresh memo already held the key")
	}
	r.obs.memoMisses.Inc()
	shared := make(chan *phys.Bodies)
	go func() {
		b, _, _ := r.bodiesFor("uniform", n, 9)
		shared <- b
	}()
	for r.obs.memoHits.Value() == 0 { // the second lookup joined the flight
		time.Sleep(100 * time.Microsecond)
	}
	f.val.b = phys.Generate(phys.ModelUniform, n, 9)
	r.bodies.publish(f)
	if b := <-shared; b != f.val.b {
		t.Fatal("a lookup during the generation got another set")
	}
	if got := r.bodies.charged(); got != 0 {
		t.Fatalf("memo holds %d bytes of an oversized set", got)
	}

	again, _, err := r.bodiesFor("uniform", n, 9)
	if err != nil {
		t.Fatal(err)
	}
	if again == f.val.b {
		t.Fatal("an oversized set was held and served again")
	}
	if h, m, ev := r.obs.memoHits.Value(), r.obs.memoMisses.Value(), r.bodies.evictions.Value(); h != 1 || m != 2 || ev != 2 {
		t.Fatalf("memo hits/misses/evictions = %v/%v/%v, want 1/2/2", h, m, ev)
	}
	if got := r.bodies.charged(); got != 0 {
		t.Fatalf("memo holds %d bytes after a second oversized set", got)
	}
	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueFullSpecGeneratesNoBodies fills the engine — its one slot
// held, its queue of four full — so the next spec is refused with
// ErrQueueFull, and checks that the refusal generated no body set: the
// slot is taken before the bodies.
func TestQueueFullSpecGeneratesNoBodies(t *testing.T) {
	r := New(1)
	eng := r.Engine()
	release, err := eng.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiters := make(chan error, 4*eng.Options().MaxActive)
	for i := 0; i < cap(waiters); i++ {
		go func() {
			rel, err := eng.Admit(ctx)
			if err == nil {
				rel()
			}
			waiters <- err
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Queued != int64(cap(waiters)) {
		if time.Now().After(deadline) {
			t.Fatalf("engine queue = %d, never reached %d", eng.Stats().Queued, cap(waiters))
		}
		time.Sleep(100 * time.Microsecond)
	}

	spec := Spec{Backend: Native, Alg: core.SPACE, Procs: 1, Bodies: 20000, Steps: 1, Seed: 1, BuildOnly: true}
	res := r.Run(context.Background(), spec)
	if !strings.Contains(res.Err, engine.ErrQueueFull.Error()) {
		t.Fatalf("spec past a full queue: err %q, want %v", res.Err, engine.ErrQueueFull)
	}
	if m, h := r.obs.memoMisses.Value(), r.obs.memoHits.Value(); m != 0 || h != 0 {
		t.Fatalf("a refused spec asked the body memo: misses %v, hits %v", m, h)
	}

	cancel()
	for i := 0; i < cap(waiters); i++ {
		if err := <-waiters; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("queued waiter: %v", err)
		}
	}
	release()
	if err := r.AuditObs(); err != nil {
		t.Fatal(err)
	}
}
