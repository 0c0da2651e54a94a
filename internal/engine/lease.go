package engine

import (
	"context"
	"errors"
	"sync"
	"time"

	"partree/internal/core"
	"partree/internal/reqtrace"
)

// Lease sentinels. Like the acquire sentinels they surface to HTTP
// callers (as a 503 before the stream opens, or an in-stream error
// record afterwards), so their text is part of the service contract.
var (
	// ErrLeasesFull rejects an OpenLease past Options.MaxLeases.
	ErrLeasesFull = errors.New("engine: leases full")
	// ErrLeaseClosed rejects a Step on a lease that was closed.
	ErrLeaseClosed = errors.New("engine: lease closed")
	// ErrLeaseEvicted rejects a Step on a lease its idle timer evicted.
	ErrLeaseEvicted = errors.New("engine: lease evicted (idle)")
)

// Lease is one long-lived simulation session: a pinned core.Stepper
// (resident UPDATE builder + body state + rebuild rule) plus the
// lifecycle around it. Leases are capacity-accounted separately from
// one-shot build slots — an idle lease holds memory, not a build slot —
// but every Step borrows a build slot for its duration, so step CPU and
// one-shot build CPU share the engine's single MaxActive budget.
//
// A lease is owned by one stream handler; Step and Close may race with
// its idle timer and with Drain, never with each other.
type Lease struct {
	eng *Engine
	st  *core.Stepper

	// mu serializes Step against Close/evict. Lock order: l.mu before
	// e.mu; nothing takes l.mu while holding e.mu.
	mu      sync.Mutex
	closed  bool
	evicted bool
	done    chan struct{}

	idle time.Duration
	// timer fires expire at deadline, the idle eviction instant, which
	// OpenLease sets and the end of every Step moves; both under mu.
	timer    *time.Timer
	deadline time.Time
}

// Stepper returns the pinned stepper for callers that need the body
// state or step counter. Mutating bodies between Step calls is the
// owner's job; the idle timer never touches them.
func (l *Lease) Stepper() *core.Stepper { return l.st }

// Done is closed when the lease ends for any reason — Close, idle
// eviction, or engine drain. Stream handlers select on it to end their
// stream when the server side gives up first.
func (l *Lease) Done() <-chan struct{} { return l.done }

// Idle returns the lease's idle timeout as OpenLease resolved it.
func (l *Lease) Idle() time.Duration { return l.idle }

// Evicted reports whether the lease was ended by its idle timer.
func (l *Lease) Evicted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// OpenLease pins st into a new session lease and arms its idle timer.
// idle <= 0 selects the 2-minute default. Rejects with ErrLeasesFull
// past Options.MaxLeases and ErrDraining once Drain has begun.
func (e *Engine) OpenLease(st *core.Stepper, idle time.Duration) (*Lease, error) {
	if idle <= 0 {
		idle = leaseIdle
	}
	l := &Lease{eng: e, st: st, done: make(chan struct{}), idle: idle}

	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.isDraining():
		e.leaseRejected.Inc()
		return nil, ErrDraining
	case e.opts.MaxLeases >= 0 && len(e.leases) >= e.opts.MaxLeases:
		e.leaseRejected.Inc()
		return nil, ErrLeasesFull
	}
	// Armed under e.mu: Drain reaches the lease only through e.leases,
	// so nothing can close it before its timer exists.
	l.deadline = time.Now().Add(idle)
	l.timer = time.AfterFunc(idle, l.expire)
	e.leases[l] = struct{}{}
	e.leasesOpened.Inc()
	return l, nil
}

// Step runs one timestep through the lease's pinned builder. It borrows
// a build slot (waiting up to ctx, aborting with ErrDraining if a drain
// starts first) so concurrent session steps and one-shot builds share
// MaxActive. The lease was admitted at OpenLease, so the wait is never
// shed by the queue bound. However it ends, a step restarts the idle
// countdown.
func (l *Lease) Step(ctx context.Context, in core.StepInput) (*core.StepResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.evicted:
		return nil, ErrLeaseEvicted
	case l.closed:
		return nil, ErrLeaseClosed
	}
	defer l.rearm()
	e := l.eng
	if err := e.wait(ctx, false); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res := l.st.Step(in)
	dur := time.Since(t0)
	<-e.slots

	reqtrace.FromContext(ctx).AddBuild(t0, dur, res.Metrics)

	mode := "update"
	if res.Fresh {
		mode = "rebuild"
	}
	e.stepSeconds.With(mode).Observe(dur.Seconds())
	if res.Fallback {
		e.leaseFallbacks.Inc()
	}
	return res, nil
}

// rearm moves the idle deadline to one idle timeout from now. Caller
// holds l.mu.
func (l *Lease) rearm() {
	l.deadline = time.Now().Add(l.idle)
	l.timer.Reset(l.idle)
}

// expire is the idle timer's callback. A lease mid-step (or waiting for
// its slot) holds l.mu, so TryLock fails: it is busy, not idle, and the
// step's end re-arms the timer. A firing that a re-arm overtook finds
// the deadline moved and leaves the lease alone.
func (l *Lease) expire() {
	if !l.mu.TryLock() {
		return
	}
	defer l.mu.Unlock()
	if !time.Now().Before(l.deadline) {
		l.closeLocked(true)
	}
}

// Close ends the lease. Idempotent; safe to call after eviction.
func (l *Lease) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked(false)
}

// closeLocked finishes the lease under l.mu and stops its timer. evict
// marks an idle eviction (counted separately and surfaced via
// ErrLeaseEvicted).
func (l *Lease) closeLocked(evict bool) {
	if l.closed {
		return
	}
	l.closed = true
	l.evicted = evict
	l.timer.Stop()
	close(l.done)
	e := l.eng

	e.mu.Lock()
	delete(e.leases, l)
	e.mu.Unlock()
	if evict {
		e.leasesEvicted.Inc()
	} else {
		e.leasesClosed.Inc()
	}
}
