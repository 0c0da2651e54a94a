// Package trace is the per-processor phase summary a native build can
// carry (core.Config.Trace). It counts nothing itself: a build given an
// enabled Recorder copies its own per-processor phase time,
// core.Metrics.PerP[w].PhaseNs, into a Summary on core.Metrics.Trace,
// where the benchmark's traced pass reads the barrier time and insert
// skew — the load-imbalance view of the paper's Table 2. ROADMAP item
// 1(a) retires the recorder by having that pass read PerP directly.
package trace

// Phase identifies a build phase: an index into the per-processor phase
// times of core.Metrics.PerP and of a Summary.
type Phase uint8

const (
	// PhasePartition covers partitioning and assignment work: root
	// bounds, SPACE's counting/subdivision rounds, UPDATE's rescale.
	PhasePartition Phase = iota
	// PhaseInsert covers loading bodies into the tree (including
	// PARTREE's merge and SPACE's subtree build/attach).
	PhaseInsert
	// PhaseMoments covers the center-of-mass pass.
	PhaseMoments
	// PhaseBarrier covers time spent waiting at a fork/join or barrier
	// for the slowest processor — the load-imbalance signal of the
	// paper's Table 2.
	PhaseBarrier

	// NumPhases is the number of phases.
	NumPhases = int(PhaseBarrier) + 1
)

// String returns the phase's metric-label name.
func (ph Phase) String() string {
	switch ph {
	case PhasePartition:
		return "partition"
	case PhaseInsert:
		return "insert"
	case PhaseMoments:
		return "moments"
	case PhaseBarrier:
		return "barrier"
	}
	return "phase?"
}

// Recorder is the switch that asks a build for its Summary.
type Recorder struct {
	enabled bool
}

// New creates a recorder for a p-processor builder. Recorders start
// disabled. The summary covers however many processors the build ran,
// so p only documents the caller's intent.
func New(p int) *Recorder { return &Recorder{} }

// SetEnabled turns the summary on or off. Toggle only between builds.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled = on
	}
}

// Active reports whether the recorder exists and is enabled. Nil-safe.
func (r *Recorder) Active() bool { return r != nil && r.enabled }
