// Package par is the repository's one fork/join: every phase of every
// builder, the moments passes, the force pass, the integrator's update
// loop and the message-passing baseline's ranks fan their per-processor
// work out through Do, so the fork/join structure of the original
// programs is explicit and written once; where the shares take their
// items from one pool, they take them through Runs.
//
// The paper's programs create their P processes once and run phase after
// phase with no process start in between. Do keeps that shape without an
// owned team. The caller runs share 0 itself. Every other share goes to a
// process-wide helper goroutine: an idle one if there is one, a new one
// otherwise. So every share of one Do runs on its own goroutine at once,
// and shares may wait on each other (mp.Step's ranks exchange messages
// inside one Do); a pool that queued shares would deadlock there.
//
// A helper that finishes its share spins for spinWindow, yielding with
// runtime.Gosched, until another Do claims it; if none does, it exits. It
// does not park: handing work to a parked goroutine means waking its idle
// OS thread, often on an idle vCPU, and that wake-up is the latency a warm
// helper removes (inside SPACE builds on a 2-vCPU guest a forked share
// started 5–8 µs late at the median and 30–70 µs at p95 when every fork
// spawned; a claimed helper starts 1–1.5 µs late). Because helpers exit
// on their own there is nothing to close and no owner. The caller joins
// the same way: it spins on the count of running shares for spinWindow,
// then blocks until the last share signals, so a long phase does not burn
// its core. When the shares outnumber the Ps (p > GOMAXPROCS, so always
// at GOMAXPROCS = 1) nobody spins — a spinner would only take a P from a
// share still waiting for one — and Do forks as plainly as it can: the
// caller hands share 0 out too and blocks, and every helper exits as soon
// as its share is done.
package par

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spinWindow is how long an idle helper, and a caller joining its shares,
// spins before giving up the core. It must outlast the serial gaps between
// two forks of one build, so that the helpers a phase used are still
// spinning when the next phase forks. Measured at n = 200 000 (p = 2,
// 2-vCPU guest, Plummer, uniform and hierarchical bodies, the longest of
// 20 builds): SPACE's decide step between two counting rounds ≤ 55 µs,
// dealing its subspaces ahead of the insert fork ≤ 10 µs, the walk to
// the moments cut ahead of the moments fork 30–220 µs (PARTREE's too). Only
// the gap between two builds — the caller's own work — can be longer, so
// a build's first fork may find its helpers gone.
const spinWindow = 200 * time.Microsecond

// job is one Do call.
type job struct {
	fn      func(w int)
	spin    bool          // its shares fit on the Ps, so waiting may spin
	running atomic.Int32  // shares not yet finished
	done    chan struct{} // buffered 1: the last share's signal never blocks
}

func (j *job) run(w int) {
	j.fn(w)
	if j.running.Add(-1) == 0 {
		j.done <- struct{}{}
	}
}

// helper is one goroutine that runs shares of successive Do calls. A
// claimer sets w, then publishes the job; the helper reads w only after it
// has loaded the job, and clears the job before it goes idle again.
type helper struct {
	w   int
	job atomic.Pointer[job]
}

var (
	mu   sync.Mutex
	idle []*helper // spinning, unclaimed; the most recently idle last

	live atomic.Int32 // helper goroutines alive, read by tests
)

// Do runs fn(0..p-1), each share on its own goroutine, and returns once
// all have finished. While p <= GOMAXPROCS share 0 runs on the caller's
// goroutine; with p == 1 that is the only one, so a panic in fn unwinds
// into the caller. With p <= 0 it calls nothing.
func Do(p int, fn func(w int)) {
	if p <= 1 {
		if p == 1 {
			fn(0)
		}
		return
	}
	j := &job{fn: fn, spin: p <= runtime.GOMAXPROCS(0), done: make(chan struct{}, 1)}
	j.running.Store(int32(p))
	// Oversubscribed, the caller hands out share 0 too and blocks at once:
	// pinning a share to the caller's P made PARTREE and SPACE builds at
	// p = 4 on two Ps 30–45 % slower.
	w := 0
	if j.spin {
		w = 1
	}
	mu.Lock()
	for ; w < p && len(idle) > 0; w++ {
		h := idle[len(idle)-1]
		idle = idle[:len(idle)-1]
		h.w = w
		h.job.Store(j)
	}
	mu.Unlock()
	for ; w < p; w++ {
		h := &helper{w: w}
		h.job.Store(j)
		live.Add(1)
		go h.loop()
	}
	if j.spin {
		j.run(0)
		for start := time.Now(); j.running.Load() != 0 && time.Since(start) < spinWindow; {
			runtime.Gosched()
		}
	}
	if j.running.Load() != 0 {
		<-j.done
	}
}

// loop runs the share it was started or claimed for, then waits to be
// claimed again; it returns after a share of a job that may not spin, or
// when wait gives up.
func (h *helper) loop() {
	defer live.Add(-1)
	for {
		j := h.job.Load()
		j.run(h.w)
		if !j.spin {
			return
		}
		h.job.Store(nil)
		mu.Lock()
		idle = append(idle, h)
		mu.Unlock()
		if !h.wait() {
			return
		}
	}
}

// wait spins for spinWindow until a Do claims h. If none does it takes h
// off the idle list — under the lock, so a claim cannot slip in between —
// and reports false.
func (h *helper) wait() bool {
	for start := time.Now(); time.Since(start) < spinWindow; runtime.Gosched() {
		if h.job.Load() != nil {
			return true
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if h.job.Load() != nil {
		return true
	}
	idle = slices.DeleteFunc(idle, func(x *helper) bool { return x == h })
	return false
}
