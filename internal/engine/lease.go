package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
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
	// ErrLeaseEvicted rejects a Step on a lease the idle janitor evicted.
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
// the idle janitor and with Drain, never with each other.
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
	// deadline is the idle eviction instant in unixnanos, refreshed after
	// every step and read by the janitor's scan.
	deadline atomic.Int64
}

// Stepper returns the pinned stepper for callers that need the body
// state or step counter. Mutating bodies between Step calls is the
// owner's job; the janitor never touches them.
func (l *Lease) Stepper() *core.Stepper { return l.st }

// Done is closed when the lease ends for any reason — Close, idle
// eviction, or engine drain. Stream handlers select on it to end their
// stream when the server side gives up first.
func (l *Lease) Done() <-chan struct{} { return l.done }

// Idle returns the lease's idle timeout as OpenLease resolved it.
func (l *Lease) Idle() time.Duration { return l.idle }

// Evicted reports whether the lease was ended by the idle janitor.
func (l *Lease) Evicted() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evicted
}

// OpenLease pins st into a new session lease. idle <= 0 selects
// Options.LeaseIdle. Rejects with ErrLeasesFull past Options.MaxLeases
// and ErrDraining once Drain has begun.
func (e *Engine) OpenLease(st *core.Stepper, idle time.Duration) (*Lease, error) {
	if idle <= 0 {
		idle = e.opts.LeaseIdle
	}
	l := &Lease{eng: e, st: st, done: make(chan struct{}), idle: idle}
	l.deadline.Store(time.Now().Add(idle).UnixNano())

	e.mu.Lock()
	switch {
	case e.isDraining():
		e.mu.Unlock()
		e.leaseRejected.Inc()
		return nil, ErrDraining
	case e.opts.MaxLeases >= 0 && len(e.leases) >= e.opts.MaxLeases:
		e.mu.Unlock()
		e.leaseRejected.Inc()
		return nil, ErrLeasesFull
	}
	e.leases[l] = struct{}{}
	e.leasesOpened.Inc()
	if !e.janitorRunning {
		e.janitorRunning = true
		go e.leaseJanitor()
	}
	e.mu.Unlock()
	return l, nil
}

// Step runs one timestep through the lease's pinned builder. It borrows
// a build slot (waiting up to ctx, aborting with ErrDraining if a drain
// starts first) so concurrent session steps and one-shot builds share
// MaxActive. The lease was admitted at OpenLease, so the wait is never
// shed by MaxQueue.
func (l *Lease) Step(ctx context.Context, in core.StepInput) (*core.StepResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.evicted:
		return nil, ErrLeaseEvicted
	case l.closed:
		return nil, ErrLeaseClosed
	}
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

	l.deadline.Store(time.Now().Add(l.idle).UnixNano())
	return res, nil
}

// Close ends the lease. Idempotent; safe to call after eviction.
func (l *Lease) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeLocked(false)
}

// closeLocked finishes the lease under l.mu. evict marks a janitor
// eviction (counted separately and surfaced via ErrLeaseEvicted).
func (l *Lease) closeLocked(evict bool) {
	if l.closed {
		return
	}
	l.closed = true
	l.evicted = evict
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

// leaseJanitor evicts idle leases: every LeaseTick it scans the open
// leases and closes those whose deadline has passed, so eviction lands
// within one tick of the deadline. It exits when the engine drains or
// the last lease ends.
func (e *Engine) leaseJanitor() {
	tk := time.NewTicker(e.opts.LeaseTick)
	defer tk.Stop()
	for {
		var now int64
		select {
		case <-e.drainCh:
			return
		case t := <-tk.C:
			now = t.UnixNano()
		}
		var expired []*Lease
		e.mu.Lock()
		for l := range e.leases {
			if l.deadline.Load() <= now {
				expired = append(expired, l)
			}
		}
		e.mu.Unlock()
		for _, l := range expired {
			// TryLock: a lease mid-step (or waiting for its slot) is busy,
			// not idle — the step refreshes the deadline when it ends, and
			// the next scan looks again.
			if l.mu.TryLock() {
				if l.deadline.Load() <= now {
					l.closeLocked(true)
				}
				l.mu.Unlock()
			}
		}
		e.mu.Lock()
		if len(e.leases) == 0 {
			e.janitorRunning = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
}
