package simalg

import (
	"partree/internal/force"
	"partree/internal/memsim"
)

// Work costs in processor cycles, scaled by the platform's cycle time.
// They mirror a classic RISC of the era and are part of the model every
// committed figure was generated with, not knobs. InteractionCycles is
// exported because the harness prices X3's message-passing interactions
// at the same rate.
const (
	InteractionCycles = 52 // one body-body or body-cell evaluation
	descendCycles     = 14 // one level of tree descent
	allocCycles       = 40 // allocating/initializing a node
	updateCycles      = 30 // integrating one body
	boundsCycles      = 6  // per body, computing the root bounds
	partitionCycles   = 12 // per body, costzones (on proc 0)
	countCycles       = 8  // per body per SPACE counting round
	momentCycles      = 24 // per node, center-of-mass pass

	// eps is the force softening length.
	eps = 0.05
	// warmSteps run at full detail but unmeasured (the paper begins
	// timing after two steps "to eliminate unrepresentative cold-start
	// and let the partitioning scheme settle down").
	warmSteps = 1
)

// Config parameterizes one simulated whole-application run.
type Config struct {
	Platform memsim.Platform
	P        int
	LeafCap  int
	// SpaceThreshold tunes SPACE (0 = default max(LeafCap, N/(4·P))).
	SpaceThreshold int

	Theta float64
	Dt    float64

	// MeasuredSteps are timed, after warmSteps.
	MeasuredSteps int

	// Sequential builds the tree without any locking (the "best
	// sequential version" used as the speedup baseline). Requires P=1.
	Sequential bool
}

func (c Config) withDefaults() Config {
	if c.P <= 0 {
		c.P = 1
	}
	if c.LeafCap <= 0 {
		c.LeafCap = 8
	}
	if c.Theta == 0 {
		c.Theta = 1.0
	}
	if c.Dt == 0 {
		c.Dt = 0.025
	}
	if c.MeasuredSteps == 0 {
		c.MeasuredSteps = 2
	}
	if c.Sequential && c.P != 1 {
		panic("simalg: Sequential requires P == 1")
	}
	return c
}

func (c Config) forceParams() force.Params {
	return force.Params{Theta: c.Theta, Eps: eps, G: 1}
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
