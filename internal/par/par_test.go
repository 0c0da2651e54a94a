package par

import (
	"sync/atomic"
	"testing"
)

// TestDoCallsEachWorkerOnce: Do(p, fn) returns only after fn has run
// exactly once for every w in 0..p-1.
func TestDoCallsEachWorkerOnce(t *testing.T) {
	for _, p := range []int{1, 2, 7, 64} {
		calls := make([]atomic.Int32, p)
		Do(p, func(w int) { calls[w].Add(1) })
		for w := range calls {
			if got := calls[w].Load(); got != 1 {
				t.Errorf("p=%d: fn(%d) ran %d times, want 1", p, w, got)
			}
		}
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
