package par

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCallsEachWorkerOnce: Do(p, fn) returns only after fn has run
// exactly once for every w in 0..p-1 — also with eight callers forking
// back to back at once, so helpers are claimed, released and reclaimed
// across callers.
func TestDoCallsEachWorkerOnce(t *testing.T) {
	const callers, rounds = 8, 500
	for _, p := range []int{1, 2, 3, 7, 64} {
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls := make([]atomic.Int32, p)
				for r := 0; r < rounds; r++ {
					Do(p, func(w int) { calls[w].Add(1) })
					for w := range calls {
						if got := calls[w].Swap(0); got != 1 {
							t.Errorf("p=%d round %d: fn(%d) ran %d times, want 1", p, r, w, got)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestDoSingleWorkerRunsOnCaller: with p == 1 no goroutine is started —
// a panic in fn unwinds through Do into the caller's frames, which it
// could not do from any other goroutine.
func TestDoSingleWorkerRunsOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "from fn" {
			t.Fatalf("recovered %v, want the panic fn raised on the caller's goroutine", r)
		}
	}()
	Do(1, func(w int) {
		if w != 0 {
			t.Errorf("fn(%d), want fn(0)", w)
		}
		panic("from fn")
	})
	t.Fatal("Do returned past a panicking fn")
}

// TestDoSharesRunConcurrently: every share of one Do waits for all the
// others to start, so Do returns only if no share is queued behind
// another — the property mp.Step's message-passing ranks rely on.
func TestDoSharesRunConcurrently(t *testing.T) {
	for _, p := range []int{2, 3, 64} {
		returned := make(chan struct{})
		go func() {
			var arrived sync.WaitGroup
			arrived.Add(p)
			Do(p, func(int) {
				arrived.Done()
				arrived.Wait()
			})
			close(returned)
		}()
		select {
		case <-returned:
		case <-time.After(30 * time.Second):
			t.Fatalf("p=%d: Do did not return; its shares cannot all be running at once", p)
		}
	}
}

// TestDoNested: a share may fork again, and the inner Do's shares run
// while the outer one's are still out.
func TestDoNested(t *testing.T) {
	const outer, inner = 3, 4
	var calls [outer][inner]atomic.Int32
	Do(outer, func(o int) {
		Do(inner, func(i int) { calls[o][i].Add(1) })
	})
	for o := range calls {
		for i := range calls[o] {
			if got := calls[o][i].Load(); got != 1 {
				t.Errorf("inner fn(%d) of outer share %d ran %d times, want 1", i, o, got)
			}
		}
	}
}

// TestDoNoWorkers: p <= 0 calls nothing and returns.
func TestDoNoWorkers(t *testing.T) {
	for _, p := range []int{0, -1} {
		Do(p, func(w int) { t.Errorf("p=%d: fn(%d) called", p, w) })
	}
}

// TestDoHelpersExit: helpers are not kept — once nobody forks, every
// helper goroutine gives up waiting and exits.
func TestDoHelpersExit(t *testing.T) {
	for i := 0; i < 100; i++ {
		Do(8, func(int) {})
	}
	for deadline := time.Now().Add(10 * time.Second); live.Load() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d helpers still alive 10 s after the last Do", live.Load())
		}
	}
}
