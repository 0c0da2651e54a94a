// Package memsim is a deterministic discrete-event simulator of a shared
// address space multiprocessor. It stands in for the paper's four 1998
// machines (SGI Challenge, SGI Origin 2000, Intel Paragon, Wisconsin
// Typhoon-0), which we obviously cannot run on: simulated processors
// execute real Go code, but every shared memory access, lock, and barrier
// goes through the engine, which charges latency according to a pluggable
// coherence protocol model and serializes execution in virtual-time order.
//
// The engine is a conservative process-oriented DES in the style Effective
// Go suggests: one goroutine per simulated processor, communicating with
// the scheduler over channels. The scheduler only ever executes the
// operation of the minimum-virtual-time runnable processor (ties broken by
// processor id), so results are bit-for-bit reproducible. The scheduler
// also holds at most one outstanding reply at any real moment — after
// handing the execution token to a processor it waits for that processor's
// next request before doing anything else — so at most one simulated
// processor executes program code at a time. Program code may therefore
// mutate shared native data structures without real locks; the simulated
// locks and the virtual-time order are the only synchronization that
// matters.
package memsim

import "fmt"

// opKind enumerates simulated operations.
type opKind int

const (
	opRead opKind = iota
	opWrite
	opReadBatch
	opWriteBatch
	opCompute
	opLock
	opUnlock
	opBarrier
	opDone
)

// request is one processor's pending operation.
type request struct {
	proc  *Proc
	kind  opKind
	addr  uint64
	addrs []uint64
	dur   float64
	lock  int
	label string
}

// Proc is a simulated processor handle, used by exactly one goroutine.
type Proc struct {
	ID  int
	eng *Engine
	now float64 // virtual ns
	rep chan float64

	// Stats, owned by the engine while the proc is blocked; reads by the
	// proc goroutine happen only after Run returns.
	stats ProcStats
}

// ProcStats accumulates one simulated processor's behaviour.
type ProcStats struct {
	ComputeNs  float64
	MemNs      float64 // latency of reads/writes
	LockNs     float64 // waiting for + acquiring locks
	BarrierNs  float64 // waiting at barriers
	Reads      int64
	Writes     int64
	Locks      int64 // lock acquisitions
	LockWaitNs float64
	UnlockNs   float64
	FinishedAt float64
}

// Now returns the processor's current virtual time (ns).
func (p *Proc) Now() float64 { return p.now }

// Read simulates a shared read of addr.
func (p *Proc) Read(addr uint64) { p.do(request{kind: opRead, addr: addr}) }

// Write simulates a shared write of addr.
func (p *Proc) Write(addr uint64) { p.do(request{kind: opWrite, addr: addr}) }

// ReadBatch simulates a sequence of reads in one scheduling step. The
// batch is atomic with respect to other processors, which is acceptable
// for conflict-free streams (e.g. the force phase's traversal reads) and
// cuts simulation overhead by the batch length.
func (p *Proc) ReadBatch(addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	p.do(request{kind: opReadBatch, addrs: addrs})
}

// WriteBatch simulates a sequence of writes in one scheduling step.
func (p *Proc) WriteBatch(addrs []uint64) {
	if len(addrs) == 0 {
		return
	}
	p.do(request{kind: opWriteBatch, addrs: addrs})
}

// Compute advances the processor's clock by ns of private work.
func (p *Proc) Compute(ns float64) {
	if ns <= 0 {
		return
	}
	p.do(request{kind: opCompute, dur: ns})
}

// Lock acquires the simulated lock id, blocking in virtual time.
func (p *Proc) Lock(id int) { p.do(request{kind: opLock, lock: id}) }

// Unlock releases the simulated lock id.
func (p *Proc) Unlock(id int) { p.do(request{kind: opUnlock, lock: id}) }

// Barrier joins the named global barrier; all live processors must reach
// it. The completion time is recorded in the result under the label.
func (p *Proc) Barrier(label string) { p.do(request{kind: opBarrier, label: label}) }

func (p *Proc) do(r request) {
	r.proc = p
	p.eng.reqs <- r
	p.now = <-p.rep
}

// lockState tracks one simulated lock.
type lockState struct {
	held         bool
	holder       int
	queue        []*Proc   // FIFO in virtual-time order of arrival
	acquireTimes []float64 // arrival time of queued procs (parallel to queue)
}

// BarrierRecord is one completed global barrier.
type BarrierRecord struct {
	Label   string
	Release float64   // virtual time all procs resumed
	Waits   []float64 // per-processor wait (indexed by processor id)
}

// Result is the outcome of a simulation run.
type Result struct {
	// Time is the virtual time at which the last processor finished.
	Time float64
	// PerProc holds each simulated processor's stats.
	PerProc []ProcStats
	// Barriers lists completed barriers in order.
	Barriers []BarrierRecord
	// Protocol exposes the coherence model's counters.
	Protocol ProtocolStats
}

// PhaseTime returns the duration between the barriers labelled from and
// to (from = "" means virtual time zero).
func (r *Result) PhaseTime(from, to string) (float64, error) {
	t0 := 0.0
	if from != "" {
		b, err := r.barrier(from)
		if err != nil {
			return 0, err
		}
		t0 = b
	}
	t1, err := r.barrier(to)
	if err != nil {
		return 0, err
	}
	return t1 - t0, nil
}

func (r *Result) barrier(label string) (float64, error) {
	for _, b := range r.Barriers {
		if b.Label == label {
			return b.Release, nil
		}
	}
	return 0, fmt.Errorf("memsim: no barrier labelled %q", label)
}

// TotalLockWait sums lock wait time across processors.
func (r *Result) TotalLockWait() float64 {
	var t float64
	for i := range r.PerProc {
		t += r.PerProc[i].LockWaitNs
	}
	return t
}

// Engine drives one simulation.
type Engine struct {
	P             int
	mem           Protocol
	plat          Platform
	reqs          chan request
	procs         []*Proc
	pending       []*request
	alive         int
	locks         map[int]*lockState
	barrier       []*Proc
	barrierArrive []float64
	barrierLabel  string
	records       []BarrierRecord
}

// NewEngine creates an engine for p processors over the given platform.
func NewEngine(plat Platform, p int) *Engine {
	return &Engine{
		P:     p,
		plat:  plat,
		mem:   newProtocol(plat, p),
		reqs:  make(chan request, p),
		locks: make(map[int]*lockState),
	}
}

// Memory exposes the protocol model (for region home placement).
func (e *Engine) Memory() Protocol { return e.mem }

// Run executes prog on each of the P simulated processors and returns the
// result. prog receives the processor handle; it must not share mutable
// state with other invocations except through the serialization the
// engine provides (at most one processor executes between operations).
func (e *Engine) Run(prog func(p *Proc)) Result {
	e.procs = make([]*Proc, e.P)
	e.pending = make([]*request, e.P)
	for i := 0; i < e.P; i++ {
		e.procs[i] = &Proc{ID: i, eng: e, rep: make(chan float64, 1)}
	}
	// Start the processor goroutines one at a time, collecting each one's
	// first request before launching the next, so that even the code
	// before the first simulated operation runs under mutual exclusion.
	for i := 0; i < e.P; i++ {
		go func(p *Proc) {
			prog(p)
			p.do(request{kind: opDone})
		}(e.procs[i])
		e.await(e.procs[i])
	}

	e.alive = e.P
	for e.alive > 0 {
		// Pick the minimum-virtual-time pending request (tie: lowest id).
		var pick *request
		for _, r := range e.pending {
			if r == nil {
				continue
			}
			if pick == nil || r.proc.now < pick.proc.now ||
				(r.proc.now == pick.proc.now && r.proc.ID < pick.proc.ID) {
				pick = r
			}
		}
		if pick == nil {
			panic("memsim: deadlock: every live processor is blocked on a lock or barrier")
		}
		e.pending[pick.proc.ID] = nil
		switch pick.kind {
		case opDone:
			pick.proc.stats.FinishedAt = pick.proc.now
			e.alive--
			pick.proc.rep <- pick.proc.now // goroutine exits; nothing to await
			e.checkBarrier()
		case opBarrier:
			if e.barrierLabel == "" {
				e.barrierLabel = pick.label
			} else if e.barrierLabel != pick.label {
				panic(fmt.Sprintf("memsim: barrier label mismatch: %q vs %q", e.barrierLabel, pick.label))
			}
			e.barrier = append(e.barrier, pick.proc)
			e.barrierArrive = append(e.barrierArrive, pick.proc.now)
			e.checkBarrier()
		case opLock:
			e.execLock(pick)
		default:
			e.execSimple(pick)
		}
	}

	res := Result{
		PerProc:  make([]ProcStats, e.P),
		Barriers: e.records,
		Protocol: e.mem.Stats(),
	}
	for i, p := range e.procs {
		res.PerProc[i] = p.stats
		if p.stats.FinishedAt > res.Time {
			res.Time = p.stats.FinishedAt
		}
	}
	return res
}

// replyAwait hands the execution token to proc p (completing its op at
// virtual time t) and blocks until p's next request is pending, preserving
// the at-most-one-executing invariant.
func (e *Engine) replyAwait(p *Proc, t float64) {
	p.rep <- t
	e.await(p)
}

// await receives the next request, which must come from p (it is the only
// proc executing), and stores it as pending.
func (e *Engine) await(p *Proc) {
	r := <-e.reqs
	if r.proc != p {
		panic("memsim: request from a processor that should not be running")
	}
	r2 := r
	e.pending[p.ID] = &r2
}

// execSimple handles operations that complete immediately in virtual time.
func (e *Engine) execSimple(r *request) {
	p := r.proc
	switch r.kind {
	case opRead, opWrite:
		lat := e.mem.Access(p.ID, r.addr, r.kind == opWrite, p.now)
		p.stats.MemNs += lat
		if r.kind == opWrite {
			p.stats.Writes++
		} else {
			p.stats.Reads++
		}
		e.replyAwait(p, p.now+lat)
	case opReadBatch, opWriteBatch:
		t := p.now
		for _, a := range r.addrs {
			t += e.mem.Access(p.ID, a, r.kind == opWriteBatch, t)
		}
		p.stats.MemNs += t - p.now
		if r.kind == opWriteBatch {
			p.stats.Writes += int64(len(r.addrs))
		} else {
			p.stats.Reads += int64(len(r.addrs))
		}
		e.replyAwait(p, t)
	case opCompute:
		p.stats.ComputeNs += r.dur
		e.replyAwait(p, p.now+r.dur)
	case opUnlock:
		l := e.lock(r.lock)
		if !l.held || l.holder != p.ID {
			panic(fmt.Sprintf("memsim: proc %d unlocking lock %d it does not hold", p.ID, r.lock))
		}
		relLat := e.mem.ReleaseLock(p.ID, r.lock, p.now)
		p.stats.UnlockNs += relLat
		releaseAt := p.now + relLat
		l.held = false
		e.replyAwait(p, releaseAt)
		if !l.held && len(l.queue) > 0 {
			w := l.queue[0]
			arrived := l.acquireTimes[0]
			l.queue = l.queue[1:]
			l.acquireTimes = l.acquireTimes[1:]
			e.grantLock(l, w, arrived, releaseAt, r.lock)
		}
	default:
		panic("memsim: bad op")
	}
}

// execLock handles a lock request: immediate grant or enqueue.
func (e *Engine) execLock(r *request) {
	p := r.proc
	l := e.lock(r.lock)
	if !l.held {
		e.grantLock(l, p, p.now, p.now, r.lock)
		return
	}
	l.queue = append(l.queue, p)
	l.acquireTimes = append(l.acquireTimes, p.now)
}

// grantLock completes a lock acquisition for proc w that requested at
// virtual time arrived; the lock became free at freeAt.
func (e *Engine) grantLock(l *lockState, w *Proc, arrived, freeAt float64, id int) {
	start := arrived
	if freeAt > start {
		start = freeAt
	}
	lat := e.mem.AcquireLock(w.ID, id, start)
	grant := start + lat
	w.stats.Locks++
	w.stats.LockWaitNs += grant - arrived
	w.stats.LockNs += grant - arrived
	l.held = true
	l.holder = w.ID
	e.replyAwait(w, grant)
}

// checkBarrier releases the barrier once every live processor is in it.
func (e *Engine) checkBarrier() {
	if len(e.barrier) == 0 || len(e.barrier) < e.alive {
		return
	}
	release, perProc := e.mem.BarrierWork(e.barrierArrive, procIDs(e.barrier))
	rec := BarrierRecord{Label: e.barrierLabel, Waits: make([]float64, e.P)}
	// Tail per-proc cost (e.g. applying HLRC write notices) lands after
	// the synchronization point. Processors are released one at a time
	// to preserve the at-most-one-executing invariant.
	maxEnd := release
	ends := make([]float64, len(e.barrier))
	for i, w := range e.barrier {
		ends[i] = release + perProc[i]
		w.stats.BarrierNs += ends[i] - e.barrierArrive[i]
		rec.Waits[w.ID] = ends[i] - e.barrierArrive[i]
		if ends[i] > maxEnd {
			maxEnd = ends[i]
		}
	}
	rec.Release = maxEnd
	e.records = append(e.records, rec)
	waiters := append([]*Proc(nil), e.barrier...)
	e.barrier = e.barrier[:0]
	e.barrierArrive = e.barrierArrive[:0]
	e.barrierLabel = ""
	for i, w := range waiters {
		e.replyAwait(w, ends[i])
	}
}

func procIDs(ps []*Proc) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

func (e *Engine) lock(id int) *lockState {
	l := e.locks[id]
	if l == nil {
		l = &lockState{}
		e.locks[id] = l
	}
	return l
}
