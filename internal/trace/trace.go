// Package trace is the low-overhead per-processor event recorder behind
// the -trace flag: the native builders (internal/core) and the platform
// replays (internal/simalg) emit span events for the build sub-phases
// (partition/assign, insert, subdivide, moments, barrier wait) and point
// events for lock acquire/hold/release into per-processor ring buffers.
//
// The design goals mirror the measurement discipline of the paper's own
// instrumentation (and of Valdarnini's and Dubinski's treecode studies,
// which both live and die by per-phase, per-processor breakdowns):
//
//   - No allocation on the hot path: every processor owns a preallocated
//     fixed-capacity ring of fixed-size Event records, padded so two
//     processors never share a cache line, and aggregation (time-in-phase,
//     lock-hold histogram) happens incrementally at emit time with a few
//     integer adds — so summaries stay exact even after the ring wraps.
//   - Compiled to a no-op when disabled: every emit hook is a method on a
//     possibly-nil *P handle that returns immediately when the handle is
//     nil or the recorder is disabled, so an untraced build pays one
//     pointer comparison per hook and nothing else.
//   - Timestamp-agnostic: events carry int64 nanoseconds relative to the
//     recorder's epoch. Native emitters stamp wall-clock time via Now;
//     the platform simulator stamps *virtual* time from memsim.Proc.Now,
//     so simulated timelines are exact rather than measured.
//
// Enabling, disabling, and resetting the recorder must happen between
// builds (outside any fork/join region); the builders' fork edges then
// publish the state to the workers.
package trace

import "time"

// Phase identifies a build sub-phase span.
type Phase uint8

const (
	// PhasePartition covers partitioning and assignment work: root
	// bounds, SPACE's counting/subdivision rounds, UPDATE's rescale.
	PhasePartition Phase = iota
	// PhaseInsert covers loading bodies into the tree (including
	// PARTREE's merge and SPACE's subtree build/attach).
	PhaseInsert
	// PhaseSubdivide covers converting a full leaf into a cell subtree
	// (emitted nested inside the insert phase).
	PhaseSubdivide
	// PhaseMoments covers the center-of-mass pass.
	PhaseMoments
	// PhaseBarrier covers time spent waiting at a fork/join or barrier
	// for the slowest processor — the load-imbalance signal of the
	// paper's Table 2.
	PhaseBarrier

	// NumPhases is the number of span phases.
	NumPhases = int(PhaseBarrier) + 1
)

// String returns the phase's CSV/timeline name.
func (ph Phase) String() string {
	switch ph {
	case PhasePartition:
		return "partition"
	case PhaseInsert:
		return "insert"
	case PhaseSubdivide:
		return "subdivide"
	case PhaseMoments:
		return "moments"
	case PhaseBarrier:
		return "barrier"
	}
	return "phase?"
}

// Kind distinguishes event records.
type Kind uint8

const (
	// KindSpan is a phase interval: Start..End.
	KindSpan Kind = iota
	// KindLock is one lock acquire/hold/release: the processor started
	// waiting at Start, obtained the lock at Acquired, released it at
	// End.
	KindLock
)

// Event is one fixed-size trace record. Timestamps are nanoseconds since
// the recorder's epoch (virtual nanoseconds for simulated runs).
type Event struct {
	Kind     Kind
	Phase    Phase // KindSpan only
	Start    int64
	End      int64
	Acquired int64 // KindLock only
}

// DefaultCapacity is the per-processor ring capacity in events.
const DefaultCapacity = 1 << 14

// procBuf is one processor's ring buffer plus its incrementally
// maintained aggregates. The trailing padding keeps neighboring
// processors' write cursors off each other's cache lines — the same
// false-sharing discipline core.procCounters follows.
type procBuf struct {
	ev   []Event
	next int64 // records emitted; ring head is next mod cap

	spans      int64
	lockEvents int64
	lockWaitNs int64
	lockHoldNs int64
	phaseNs    [NumPhases]int64
	hold       Hist
	_          [8]int64
}

func (b *procBuf) put(e Event) {
	b.ev[b.next%int64(len(b.ev))] = e
	b.next++
}

// Recorder owns the per-processor buffers for one traced run.
type Recorder struct {
	epoch   time.Time
	enabled bool
	bufs    []procBuf
	ps      []P
}

// New creates a recorder for p processors with the default per-processor
// capacity. Recorders start disabled.
func New(p int) *Recorder { return NewWithCapacity(p, DefaultCapacity) }

// NewWithCapacity creates a recorder with an explicit per-processor ring
// capacity (events). The ring keeps the most recent events; aggregate
// counters and histograms cover every emitted event regardless.
func NewWithCapacity(p, perProc int) *Recorder {
	if p < 1 {
		p = 1
	}
	if perProc < 1 {
		perProc = 1
	}
	r := &Recorder{epoch: time.Now(), bufs: make([]procBuf, p), ps: make([]P, p)}
	for w := range r.bufs {
		r.bufs[w].ev = make([]Event, perProc)
		r.ps[w] = P{r: r, w: w, b: &r.bufs[w]}
	}
	return r
}

// Procs returns the processor count the recorder was created for.
func (r *Recorder) Procs() int {
	if r == nil {
		return 0
	}
	return len(r.bufs)
}

// Proc returns processor w's emit handle. Nil-safe: a nil recorder (or
// out-of-range w) yields a nil handle whose methods are no-ops, which is
// exactly how tracing compiles away when disabled.
func (r *Recorder) Proc(w int) *P {
	if r == nil || w < 0 || w >= len(r.ps) {
		return nil
	}
	return &r.ps[w]
}

// SetEnabled turns recording on or off. Toggle only between builds; the
// builders' fork/join edges publish the flag to their workers.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled = on
	}
}

// Active reports whether the recorder exists and is enabled. Nil-safe.
func (r *Recorder) Active() bool { return r != nil && r.enabled }

// Now returns nanoseconds since the recorder's epoch (the native
// emitters' time source; simulated emitters stamp virtual time instead).
func (r *Recorder) Now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Reset clears every buffer and aggregate and restarts the epoch, so the
// next emitted event begins a fresh trace window, and returns the new
// epoch (the zero of the window's timestamps). The enabled flag is
// kept. Call only between builds.
func (r *Recorder) Reset() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.epoch = time.Now()
	for w := range r.bufs {
		b := &r.bufs[w]
		ev := b.ev
		*b = procBuf{ev: ev}
		r.ps[w].lockStart, r.ps[w].lockAcquired = 0, 0
	}
	return r.epoch
}

// Events returns processor w's buffered events in chronological order
// (the most recent capacity's worth, if the ring wrapped).
func (r *Recorder) Events(w int) []Event {
	if r == nil || w < 0 || w >= len(r.bufs) {
		return nil
	}
	b := &r.bufs[w]
	c := int64(len(b.ev))
	if b.next <= c {
		return append([]Event(nil), b.ev[:b.next]...)
	}
	head := b.next % c
	out := make([]Event, 0, c)
	out = append(out, b.ev[head:]...)
	return append(out, b.ev[:head]...)
}

// P is one processor's emit handle. All methods are no-ops on a nil
// handle or a disabled recorder, so builders hold a *P unconditionally
// and the untraced hot path costs one nil comparison per hook.
type P struct {
	r *Recorder
	w int
	b *procBuf

	// lockStart/lockAcquired stage a pending native lock event between
	// LockBegin/LockAcquired and LockEnd — the native inserters hold at
	// most one traced lock at a time, so one slot suffices.
	lockStart    int64
	lockAcquired int64
}

// Active reports whether emitting through this handle records anything.
func (p *P) Active() bool { return p != nil && p.r.enabled }

// Now returns nanoseconds since the recorder's epoch. Nil-safe.
func (p *P) Now() int64 {
	if p == nil {
		return 0
	}
	return p.r.Now()
}

// SpanAt records a phase span covering [start, end].
func (p *P) SpanAt(ph Phase, start, end int64) {
	if p == nil || !p.r.enabled {
		return
	}
	b := p.b
	b.put(Event{Kind: KindSpan, Phase: ph, Start: start, End: end})
	b.spans++
	b.phaseNs[ph] += end - start
}

// Span records a phase span from start to now.
func (p *P) Span(ph Phase, start int64) {
	if p == nil || !p.r.enabled {
		return
	}
	p.SpanAt(ph, start, p.Now())
}

// LockAcquired stages a pending lock event: waiting for the lock began
// at start and the lock was obtained now. Pair with LockReleased; the
// native inserters hold one traced lock at a time, so the pending event
// lives on the handle and the hot path never allocates.
func (p *P) LockAcquired(start int64) {
	if p == nil || !p.r.enabled {
		return
	}
	p.lockStart = start
	p.lockAcquired = p.r.Now()
}

// LockReleased emits the lock event staged by the matching LockAcquired,
// with release time now.
func (p *P) LockReleased() {
	if p == nil || !p.r.enabled {
		return
	}
	p.LockAt(p.lockStart, p.lockAcquired, p.r.Now())
}

// LockAt records one lock event: waiting began at start, the lock was
// obtained at acquired and released at end.
func (p *P) LockAt(start, acquired, end int64) {
	if p == nil || !p.r.enabled {
		return
	}
	b := p.b
	b.put(Event{Kind: KindLock, Start: start, Acquired: acquired, End: end})
	b.lockEvents++
	b.lockWaitNs += acquired - start
	b.lockHoldNs += end - acquired
	b.hold.Add(end - acquired)
}
