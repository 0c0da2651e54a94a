package simalg

import (
	"partree/internal/force"
	"partree/internal/memsim"
	"partree/internal/trace"
)

// Config parameterizes one simulated whole-application run.
type Config struct {
	Platform memsim.Platform
	P        int
	LeafCap  int
	// SpaceThreshold tunes SPACE (0 = default max(LeafCap, N/(4·P))).
	SpaceThreshold int

	Theta float64
	Eps   float64
	Dt    float64

	// WarmSteps run at full detail but unmeasured (the paper begins
	// timing after two steps "to eliminate unrepresentative cold-start
	// and let the partitioning scheme settle down").
	WarmSteps int
	// MeasuredSteps are timed.
	MeasuredSteps int

	// Sequential builds the tree without any locking (the "best
	// sequential version" used as the speedup baseline). Requires P=1.
	Sequential bool

	// Trace, when non-nil and enabled, records per-processor build-phase
	// spans and lock events in *virtual* nanoseconds over the measured
	// steps (warm steps are never recorded). The recorder's per-processor
	// lock-event totals equal Outcome.LocksPerProc by construction.
	Trace *trace.Recorder

	// Work costs in processor cycles (defaults mirror a classic RISC of
	// the era; scaled by the platform's cycle time).
	InteractionCycles float64 // one body-body or body-cell evaluation
	DescendCycles     float64 // one level of tree descent
	AllocCycles       float64 // allocating/initializing a node
	UpdateCycles      float64 // integrating one body
	BoundsCycles      float64 // per body, computing the root bounds
	PartitionCycles   float64 // per body, costzones (on proc 0)
	CountCycles       float64 // per body per SPACE counting round
	MomentCycles      float64 // per node, center-of-mass pass
}

func (c Config) withDefaults(n int) Config {
	if c.P <= 0 {
		c.P = 1
	}
	if c.LeafCap <= 0 {
		c.LeafCap = 8
	}
	if c.Theta == 0 {
		c.Theta = 1.0
	}
	if c.Eps == 0 {
		c.Eps = 0.05
	}
	if c.Dt == 0 {
		c.Dt = 0.025
	}
	if c.WarmSteps == 0 {
		c.WarmSteps = 1
	}
	if c.MeasuredSteps == 0 {
		c.MeasuredSteps = 2
	}
	if c.InteractionCycles == 0 {
		c.InteractionCycles = 52
	}
	if c.DescendCycles == 0 {
		c.DescendCycles = 14
	}
	if c.AllocCycles == 0 {
		c.AllocCycles = 40
	}
	if c.UpdateCycles == 0 {
		c.UpdateCycles = 30
	}
	if c.BoundsCycles == 0 {
		c.BoundsCycles = 6
	}
	if c.PartitionCycles == 0 {
		c.PartitionCycles = 12
	}
	if c.CountCycles == 0 {
		c.CountCycles = 8
	}
	if c.MomentCycles == 0 {
		c.MomentCycles = 24
	}
	if c.Sequential && c.P != 1 {
		panic("simalg: Sequential requires P == 1")
	}
	return c
}

func (c Config) forceParams() force.Params {
	return force.Params{Theta: c.Theta, Eps: c.Eps, G: 1}
}

// Outcome is the simulated result of the measured steps. It does not
// restate which run it was: the caller holds the algorithm and the Config.
type Outcome struct {
	Steps int

	// Per-phase simulated time, summed over measured steps (ns).
	TreeNs   float64
	PartNs   float64
	ForceNs  float64
	UpdateNs float64

	// LocksPerProc counts tree-build lock acquisitions per processor
	// over the measured steps (the paper's Figure 15).
	LocksPerProc []int64
	// BarrierNsPerProc is each processor's total barrier time over the
	// measured steps (the paper's Table 2).
	BarrierNsPerProc []float64

	Interactions int64
	Protocol     memsim.ProtocolStats
}

// TotalNs is the whole-application simulated time for the measured steps.
func (o Outcome) TotalNs() float64 { return o.TreeNs + o.PartNs + o.ForceNs + o.UpdateNs }

// TreeShare is the fraction of total time spent building the tree.
func (o Outcome) TreeShare() float64 {
	t := o.TotalNs()
	if t == 0 {
		return 0
	}
	return o.TreeNs / t
}

// TotalLocks sums lock acquisitions across processors.
func (o Outcome) TotalLocks() int64 {
	var t int64
	for _, l := range o.LocksPerProc {
		t += l
	}
	return t
}

// MeanBarrierNs is the mean per-processor barrier time.
func (o Outcome) MeanBarrierNs() float64 {
	if len(o.BarrierNsPerProc) == 0 {
		return 0
	}
	var t float64
	for _, b := range o.BarrierNsPerProc {
		t += b
	}
	return t / float64(len(o.BarrierNsPerProc))
}
