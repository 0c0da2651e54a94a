// Package trace is the low-overhead per-processor recorder a native
// build can carry (core.Config.Trace): the builders count, processor by
// processor, the spans of each build sub-phase (partition/assign,
// insert, subdivide, moments, barrier wait), the time in them, and the
// lock acquisitions of the tree-build phase. The summary lands on
// core.Metrics.Trace, where internal/verify holds it to the builders'
// own counters (the lock witness and the phase-time law) and the
// benchmark's traced pass reads the barrier time and insert skew.
//
// The design goals mirror the measurement discipline of the paper's own
// instrumentation (and of Valdarnini's and Dubinski's treecode studies,
// which both live and die by per-phase, per-processor breakdowns):
//
//   - No allocation on the hot path: every processor owns a fixed block
//     of counters, padded so two processors never share a cache line,
//     and aggregation happens at emit time with a few integer adds.
//   - Compiled to a no-op when disabled: every emit hook is a method on a
//     possibly-nil *P handle that returns immediately when the handle is
//     nil or the recorder is disabled, so an untraced build pays one
//     pointer comparison per hook and nothing else.
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

// String returns the phase's metric-label name.
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

// procBuf is one processor's counters, kept as the summary they are
// read as. The trailing padding keeps neighboring processors' counters
// off each other's cache lines — the same false-sharing discipline
// core.procCounters follows.
type procBuf struct {
	sum ProcSummary
	_   [8]int64
}

// Recorder owns the per-processor counters for one traced build.
type Recorder struct {
	epoch   time.Time
	enabled bool
	bufs    []procBuf
	ps      []P
}

// New creates a recorder for p processors. Recorders start disabled.
func New(p int) *Recorder {
	if p < 1 {
		p = 1
	}
	r := &Recorder{epoch: time.Now(), bufs: make([]procBuf, p), ps: make([]P, p)}
	for w := range r.bufs {
		r.ps[w] = P{r: r, b: &r.bufs[w]}
	}
	return r
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

// Reset clears every counter and restarts the epoch, so the next build
// begins a fresh window, and returns the new epoch (the zero of the
// window's timestamps). The enabled flag is kept. Call only between
// builds.
func (r *Recorder) Reset() time.Time {
	if r == nil {
		return time.Time{}
	}
	r.epoch = time.Now()
	clear(r.bufs)
	return r.epoch
}

// P is one processor's emit handle. All methods are no-ops on a nil
// handle or a disabled recorder, so builders hold a *P unconditionally
// and the untraced hot path costs one nil comparison per hook.
type P struct {
	r *Recorder
	b *procBuf
}

// Active reports whether emitting through this handle records anything.
func (p *P) Active() bool { return p != nil && p.r.enabled }

// Now returns nanoseconds since the recorder's epoch. Nil-safe.
func (p *P) Now() int64 {
	if p == nil {
		return 0
	}
	return time.Since(p.r.epoch).Nanoseconds()
}

// SpanAt records a phase span covering [start, end].
func (p *P) SpanAt(ph Phase, start, end int64) {
	if p == nil || !p.r.enabled {
		return
	}
	p.b.sum.Spans[ph]++
	p.b.sum.PhaseNs[ph] += end - start
}

// Span records a phase span from start to now.
func (p *P) Span(ph Phase, start int64) {
	if p == nil || !p.r.enabled {
		return
	}
	p.SpanAt(ph, start, p.Now())
}

// Locked counts one lock acquisition of the tree-build phase.
func (p *P) Locked() {
	if p == nil || !p.r.enabled {
		return
	}
	p.b.sum.LockEvents++
}
