package runner

import (
	"encoding/json"
	"io"

	"partree/internal/memsim"
	"partree/internal/simalg"
)

// Result is the structured outcome of one spec. Time fields are
// simulated nanoseconds for the simulated backend and wall-clock
// nanoseconds for the native backend; WallNs is always the real time the
// run took on this machine. A cancelled or timed-out spec yields a
// partial Result with Err set and whatever was measured before the cut.
type Result struct {
	Spec Spec `json:"spec"`

	TreeNs    float64 `json:"tree_ns"`
	PartNs    float64 `json:"partition_ns"`
	ForceNs   float64 `json:"force_ns"`
	UpdateNs  float64 `json:"update_ns"`
	TotalNs   float64 `json:"total_ns"`
	TreeShare float64 `json:"tree_share"`

	LocksTotal    int64   `json:"locks_total"`
	LocksPerProc  []int64 `json:"locks_per_proc,omitempty"`
	Retries       int64   `json:"retries,omitempty"`
	Cells         int64   `json:"cells,omitempty"`
	Leaves        int64   `json:"leaves,omitempty"`
	MaxDepth      int64   `json:"max_depth,omitempty"`
	BarrierNsMean float64 `json:"barrier_ns_mean,omitempty"`
	Interactions  int64   `json:"interactions,omitempty"`

	// BodiesBuilt is the number of bodies the last build repetition
	// loaded into its tree (build-only specs). A cluster shard reports it
	// for the cross-shard conservation audit; it is not serialized — the
	// wire shape of a Result is pinned.
	BodiesBuilt int64 `json:"-"`

	// StepsDone counts the steps (or build repetitions) that completed;
	// it falls short of Spec.Steps only on cancellation or timeout.
	StepsDone int `json:"steps_done"`

	Protocol *memsim.ProtocolStats `json:"protocol,omitempty"`

	// WallNs is the real time the execution took on this machine,
	// excluding memoized body generation, which is reported separately as
	// GenNs (the full generation time for this spec's body set, charged
	// identically to every spec that shares it).
	WallNs int64  `json:"wall_ns"`
	GenNs  int64  `json:"gen_ns,omitempty"`
	Err    string `json:"error,omitempty"`
	// CheckFailure is the first tree-verification violation found when
	// the spec ran with Check set (empty otherwise).
	CheckFailure string `json:"check_failure,omitempty"`

	// transient marks a result that must not be memoized: an engine
	// admission rejection (queue full, draining) reflects momentary load,
	// not the spec, so an identical later request deserves a fresh try.
	transient bool
}

// Failed reports whether the spec did not run to completion, or ran but
// produced a tree that failed verification.
func (r Result) Failed() bool { return r.Err != "" || r.CheckFailure != "" }

// FailureMessage renders the failure for error output (empty when the
// spec succeeded).
func (r Result) FailureMessage() string {
	if r.Err != "" {
		return r.Err
	}
	if r.CheckFailure != "" {
		return "verification failed: " + r.CheckFailure
	}
	return ""
}

func resultFromOutcome(spec Spec, o simalg.Outcome) Result {
	return Result{
		Spec:          spec,
		TreeNs:        o.TreeNs,
		PartNs:        o.PartNs,
		ForceNs:       o.ForceNs,
		UpdateNs:      o.UpdateNs,
		TotalNs:       o.TotalNs(),
		TreeShare:     o.TreeShare(),
		LocksTotal:    o.TotalLocks(),
		LocksPerProc:  o.LocksPerProc,
		BarrierNsMean: o.MeanBarrierNs(),
		Interactions:  o.Interactions,
		StepsDone:     o.Steps,
		Protocol:      &o.Protocol,
	}
}

// WriteJSON emits one JSON record per result, newline-delimited, for
// downstream tooling (the -json flag of every binary).
func WriteJSON(w io.Writer, results ...Result) error {
	enc := json.NewEncoder(w)
	for _, r := range results {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}
