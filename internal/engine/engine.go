// Package engine is the long-lived execution layer under every native
// tree build: a pool of builder *sessions*, each wrapping a persistent
// core.Builder whose octree store is Reset() and reused across requests,
// with admission control in front. The paper's finding is that build cost
// is dominated by synchronization and memory behaviour, not arithmetic —
// so a process that serves builds continuously must not re-pay store
// allocation on every request. Sessions are keyed by the builder's full
// identity (algorithm, processors, leaf capacity); acquiring a session
// for a key the pool has seen before reuses its warmed store, and the
// steady-state hot path of a repeated build allocates (near) zero.
//
// Admission control bounds what a long-lived process lets in: at most
// MaxActive builds run concurrently, at most 4×MaxActive more may wait
// (with the wait honoring the request context's deadline), anything
// beyond is rejected immediately with ErrQueueFull, and once Drain
// begins every new acquire is rejected with ErrDraining while in-flight
// builds run to completion. The engine is the process's one scheduler:
// everything internal/runner executes (native builds through Acquire,
// simulated replays through Admit), harness.Session
// sweeps, and cmd/partreed's requests and session steps all take their
// CPU from one shared Engine's slots, so the whole process observes a
// single budget.
package engine

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"partree/internal/core"
	"partree/internal/octree"
	"partree/internal/reqtrace"
)

// Rejection sentinels. They surface to HTTP callers as 503s, so their
// text is part of the service contract.
var (
	// ErrQueueFull rejects an acquire that would exceed MaxActive running
	// plus 4×MaxActive waiting builds.
	ErrQueueFull = errors.New("engine: queue full")
	// ErrDraining rejects every acquire after Drain has begun.
	ErrDraining = errors.New("engine: draining")
)

// Rejected reports whether msg is (or wraps the text of) an admission
// rejection. Layers above the engine carry failures in-band as strings
// (runner.Result.Err, a shard's JSON error document), so the 503
// contract is matched on the sentinel texts.
func Rejected(msg string) bool {
	return strings.Contains(msg, ErrQueueFull.Error()) || strings.Contains(msg, ErrDraining.Error())
}

// Key is a session's identity: two requests with equal keys can share a
// pooled builder (and therefore its retained store). The fields are the
// algorithm and the core.Config knobs a request chooses; zero values
// normalize to the documented core defaults so equivalent configurations
// pool together.
type Key struct {
	Alg     core.Algorithm
	P       int
	LeafCap int
}

// config is the core.Config a session for k is built with.
func (k Key) config() core.Config {
	return core.Config{P: k.P, LeafCap: k.LeafCap}
}

func (k Key) normalized() Key {
	c := k.config().Normalized()
	k.P, k.LeafCap = c.P, c.LeafCap
	return k
}

// Options bound the engine. The zero value selects sane service
// defaults.
type Options struct {
	// MaxActive is the number of builds allowed to run concurrently
	// (0 = GOMAXPROCS).
	MaxActive int
	// MaxLeases bounds concurrently open session leases — the resident
	// streaming sessions of OpenLease, accounted separately from build
	// slots because an idle lease holds memory, not CPU (0 = 256;
	// negative = unbounded).
	MaxLeases int
}

// The engine's fixed sizing.
const (
	// queuePerSlot is how many acquires may wait per build slot: past
	// queuePerSlot×MaxActive waiters, a new one is rejected with
	// ErrQueueFull.
	queuePerSlot = 4
	// maxIdle bounds the sessions retained in the pool across all keys;
	// the least recently used is evicted past it.
	maxIdle = 32
	// leaseIdle is the idle-eviction timeout of a lease opened without
	// its own.
	leaseIdle = 2 * time.Minute
)

func (o Options) withDefaults() Options {
	if o.MaxActive <= 0 {
		o.MaxActive = runtime.GOMAXPROCS(0)
	}
	if o.MaxLeases == 0 {
		o.MaxLeases = 256
	}
	return o
}

// Engine is the session pool. Create with New; safe for concurrent use.
type Engine struct {
	opts Options
	// slots is the active-build semaphore: a session, an Admit holder and
	// a running lease step each hold one token. Drain seizes every token
	// to wait out in-flight builds.
	slots chan struct{}

	// drainCh is closed the moment a drain begins: it is the draining
	// flag, and it wakes everything queued in wait, which would otherwise
	// sit behind the slots Drain is busy seizing.
	drainCh chan struct{}

	mu        sync.Mutex
	idle      map[Key][]*Session
	lru       *list.List // *Session, front = most recently released
	sessions  map[*Session]struct{}
	leases    map[*Lease]struct{}
	drainDone chan struct{} // non-nil once a drain has started

	// queued and inUse are sampled as gauges; everything the engine
	// counts it counts into the metrics below (see obs.go).
	queued atomic.Int64
	inUse  atomic.Int64
	engineObs
}

// New creates an engine.
func New(o Options) *Engine {
	o = o.withDefaults()
	return &Engine{
		opts:      o,
		slots:     make(chan struct{}, o.MaxActive),
		drainCh:   make(chan struct{}),
		idle:      map[Key][]*Session{},
		lru:       list.New(),
		sessions:  map[*Session]struct{}{},
		leases:    map[*Lease]struct{}{},
		engineObs: newEngineObs(),
	}
}

// Options returns the engine's sizing with every default resolved.
// MaxActive is how wide a caller can fan work out before its own
// requests start queueing behind each other.
func (e *Engine) Options() Options { return e.opts }

// Session is one exclusively-held pooled builder. Build through it (or
// take Builder() and drive it directly), then Release it back to the
// pool. A session is never handed to two holders at once.
type Session struct {
	eng      *Engine
	key      Key
	b        core.Builder
	elem     *list.Element // LRU position while idle, nil while held
	released bool
}

// Key returns the session's identity.
func (s *Session) Key() Key { return s.key }

// Builder returns the persistent builder for callers that drive it
// directly (nbody injects it into a Simulation). The builder must not be
// used after Release.
func (s *Session) Builder() core.Builder { return s.b }

// Build runs one build through the session's persistent builder.
func (s *Session) Build(in *core.Input) (*octree.Tree, *core.Metrics) {
	return s.b.Build(in)
}

// isDraining reports whether Drain has begun. drainCh is closed under
// e.mu, so a caller holding e.mu sees a drain atomically with the pool
// being emptied.
func (e *Engine) isDraining() bool {
	select {
	case <-e.drainCh:
		return true
	default:
		return false
	}
}

// wait takes one build slot. It is the only place anything waits for
// one, so every waiter is counted in Stats().Queued, stamps the wait
// onto its request's Queue station (the admission queue is where a
// request's latency stops being its own fault; nil-safe for a build
// with no request behind it), and is woken by a drain. shed is the one policy
// callers differ in: a one-shot arrival past the queue bound is refused
// with ErrQueueFull, while a lease was admitted at OpenLease, so its
// steps queue unconditionally. Only real waiters count — a caller that finds a
// slot free never does.
func (e *Engine) wait(ctx context.Context, shed bool) error {
	select {
	case e.slots <- struct{}{}:
		return nil
	default:
	}
	q := e.queued.Add(1)
	defer e.queued.Add(-1)
	if shed && int(q) > queuePerSlot*e.opts.MaxActive {
		e.rejectedFull.Inc()
		return ErrQueueFull
	}
	qstart := time.Now()
	select {
	case e.slots <- struct{}{}:
		reqtrace.FromContext(ctx).Since(reqtrace.Queue, qstart)
		return nil
	case <-e.drainCh:
		e.rejectedDraining.Inc()
		return ErrDraining
	case <-ctx.Done():
		e.rejectedCancelled.Inc()
		return fmt.Errorf("engine: acquire: %w", ctx.Err())
	}
}

// Admit is the engine's admission gate for work that needs a build slot
// but no pooled session: a simulated replay, its one caller outside
// tests. It blocks while MaxActive slots are held, up to ctx's
// deadline; it rejects immediately with ErrQueueFull when 4×MaxActive
// callers are already waiting, and with ErrDraining once Drain has
// begun. The caller runs its work, then calls release exactly once.
func (e *Engine) Admit(ctx context.Context) (release func(), err error) {
	if err := e.admit(ctx); err != nil {
		return nil, err
	}
	return func() { <-e.slots }, nil
}

// admit is Admit without the release closure: on nil the caller holds a
// slot and gives it back with <-e.slots.
func (e *Engine) admit(ctx context.Context) error {
	if e.isDraining() {
		e.rejectedDraining.Inc()
		return ErrDraining
	}
	if err := e.wait(ctx, true); err != nil {
		return err
	}
	if e.isDraining() {
		// Drain began between the check above and a free slot; this
		// caller must not start new work.
		<-e.slots
		e.rejectedDraining.Inc()
		return ErrDraining
	}
	return nil
}

// Acquire is Admit plus a session checkout: it takes exclusive ownership
// of a session for key, reusing a pooled one when available and creating
// one otherwise. Session.Release gives the slot back.
func (e *Engine) Acquire(ctx context.Context, k Key) (*Session, error) {
	k = k.normalized()
	if err := e.admit(ctx); err != nil {
		return nil, err
	}

	e.mu.Lock()
	var s *Session
	if l := e.idle[k]; len(l) > 0 {
		s = l[len(l)-1]
		if len(l) == 1 {
			delete(e.idle, k)
		} else {
			e.idle[k] = l[:len(l)-1]
		}
		e.lru.Remove(s.elem)
		s.elem = nil
		s.released = false
		e.reused.Inc()
	}
	e.mu.Unlock()

	if s == nil {
		// Built outside the lock: store allocation is the expensive part
		// pooling exists to amortize.
		s = &Session{eng: e, key: k, b: core.New(k.Alg, k.config())}
		e.created.Inc()
		e.mu.Lock()
		e.sessions[s] = struct{}{}
		e.mu.Unlock()
	}
	e.inUse.Add(1)
	return s, nil
}

// Release returns the session to the pool (evicting the least recently
// used past maxIdle, or freeing it while draining) and gives up its
// build slot.
func (s *Session) Release() {
	e := s.eng
	e.mu.Lock()
	if s.released {
		e.mu.Unlock()
		panic("engine: session released twice")
	}
	s.released = true
	if e.isDraining() {
		delete(e.sessions, s)
	} else {
		e.idle[s.key] = append(e.idle[s.key], s)
		s.elem = e.lru.PushFront(s)
		if e.lru.Len() > maxIdle {
			e.evictLocked(e.lru.Back().Value.(*Session))
		}
	}
	e.mu.Unlock()
	e.inUse.Add(-1)
	<-e.slots
}

// evictLocked drops an idle session from the pool. Caller holds e.mu.
func (e *Engine) evictLocked(victim *Session) {
	l := e.idle[victim.key]
	for i := range l {
		if l[i] == victim {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(e.idle, victim.key)
	} else {
		e.idle[victim.key] = l
	}
	e.lru.Remove(victim.elem)
	victim.elem = nil
	delete(e.sessions, victim)
	e.evicted.Inc()
}

// Drain gracefully shuts the engine down: new acquires are rejected with
// ErrDraining immediately, pooled idle sessions are freed, and Drain
// blocks until every in-flight build has Released — or ctx expires, in
// which case the engine stays draining (still rejecting) with the
// stragglers unwaited. Concurrent and repeated calls share one drain.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	first := e.drainDone == nil
	if first {
		e.drainDone = make(chan struct{})
		close(e.drainCh)
	}
	done := e.drainDone
	for _, l := range e.idle {
		for _, s := range l {
			delete(e.sessions, s)
		}
	}
	e.idle = map[Key][]*Session{}
	e.lru.Init()
	leases := make([]*Lease, 0, len(e.leases))
	for l := range e.leases {
		leases = append(leases, l)
	}
	e.mu.Unlock()

	// Close every lease. Lease.Close takes l.mu, which a mid-step lease
	// holds until its current step finishes — so this loop is exactly
	// "finish the in-flight step, then close the stream". Steps *waiting*
	// for a slot were already woken by drainCh with ErrDraining.
	for _, l := range leases {
		l.Close()
	}

	if !first {
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("engine: drain: %w (%d builds still in flight)", ctx.Err(), e.inUse.Load())
		}
	}
	// Seize every build slot: once all tokens are held here, no build is
	// in flight and none can start.
	for i := 0; i < cap(e.slots); i++ {
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			return fmt.Errorf("engine: drain: %w (%d builds still in flight)", ctx.Err(), e.inUse.Load())
		}
	}
	close(done)
	return nil
}

// Stats is a snapshot of the pool's state — what is held, pooled and
// waiting right now. What the engine has counted since it started is in
// its counters (obs.go), not here.
type Stats struct {
	InUse, Idle, Queued int64
	Draining            bool
	// LeasesActive is the number of open streaming sessions.
	LeasesActive int64
	// Store aggregates retained octree storage over every live session
	// (idle and in use) and every open lease's resident builder.
	Store octree.StoreStats
}

// Stats snapshots the engine. Store figures read each session's store
// atomically; a snapshot taken while builds run is a consistent-enough
// lower bound.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	sessions := make([]*Session, 0, len(e.sessions))
	for s := range e.sessions {
		sessions = append(sessions, s)
	}
	steppers := make([]*core.Stepper, 0, len(e.leases))
	for l := range e.leases {
		steppers = append(steppers, l.st)
	}
	idle := int64(e.lru.Len())
	e.mu.Unlock()
	st := Stats{
		InUse:        e.inUse.Load(),
		Idle:         idle,
		Queued:       e.queued.Load(),
		Draining:     e.isDraining(),
		LeasesActive: int64(len(steppers)),
	}
	for _, s := range sessions {
		st.Store = st.Store.Add(s.b.Store().Stats())
	}
	for _, sp := range steppers {
		st.Store = st.Store.Add(sp.Builder().Store().Stats())
	}
	return st
}
