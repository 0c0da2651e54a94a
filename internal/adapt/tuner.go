package adapt

import (
	"partree/internal/core"
	"partree/internal/trace"
)

// TunerPolicy bounds the auto-tuner. Zero fields select the documented
// defaults, mirroring core.FallbackPolicy's style.
type TunerPolicy struct {
	// MaxLockWaitFrac is the lock-wait share of total build time above
	// which a step votes to raise the leaf capacity (fewer subdivisions,
	// fewer locks). <=0 selects 0.10.
	MaxLockWaitFrac float64
	// MaxBarrierFrac is the barrier-wait share above which a step votes
	// to halve the effective processor count — the parallelism is not
	// paying for its synchronization. <=0 selects 0.40.
	MaxBarrierFrac float64
	// MinBarrierFrac is the barrier share below which (with skew also
	// settled) a step votes to restore halved processors. <=0 selects
	// 0.05.
	MinBarrierFrac float64
	// MaxSkew is the max/mean insert-time ratio above which a step votes
	// to halve the SPACE threshold, so fallback rebuilds repartition
	// space more finely. <=0 selects 1.5.
	MaxSkew float64
	// Streak is how many consecutive over-threshold steps a signal needs
	// before its knob moves. <=0 selects 3.
	Streak int
	// MinSteps is the cooldown: no knob change within MinSteps steps of
	// the previous one, so one change's effect is observed before the
	// next. <=0 selects 8.
	MinSteps int
	// MaxLeafCap caps leaf-capacity doubling. <=0 selects 64.
	MaxLeafCap int
}

func (p TunerPolicy) withDefaults() TunerPolicy {
	if p.MaxLockWaitFrac <= 0 {
		p.MaxLockWaitFrac = 0.10
	}
	if p.MaxBarrierFrac <= 0 {
		p.MaxBarrierFrac = 0.40
	}
	if p.MinBarrierFrac <= 0 {
		p.MinBarrierFrac = 0.05
	}
	if p.MaxSkew <= 0 {
		p.MaxSkew = 1.5
	}
	if p.Streak <= 0 {
		p.Streak = 3
	}
	if p.MinSteps <= 0 {
		p.MinSteps = 8
	}
	if p.MaxLeafCap <= 0 {
		p.MaxLeafCap = 64
	}
	return p
}

// Knob names a tuner decision, for metrics and step records.
const (
	KnobLeafCap        = "leafcap"
	KnobSpaceThreshold = "space-threshold"
	KnobPDown          = "p-down"
	KnobPUp            = "p-up"
)

// Tuner turns live phase/lock fractions into knob changes with the same
// hysteresis shape as core.FallbackController: each signal must stay
// over its threshold for Streak consecutive steps, at most one knob moves
// per decision, and a cooldown separates decisions so each change's
// effect is measured before the next. A knob change costs the session one
// fresh rebuild (the stepper recreates its builder), which is why the
// hysteresis is deliberately sluggish.
type Tuner struct {
	policy TunerPolicy
	// maxP is the session's configured processor count — the ceiling
	// recovery can restore to (stores and recorders were sized for it).
	maxP int

	lockStreak    int
	barrierStreak int
	skewStreak    int
	recoverStreak int
	sinceChange   int
	lastKnob      string
}

// NewTuner returns a tuner for a session configured with maxP
// processors. The cooldown starts elapsed-from-zero, so the earliest
// change lands after MinSteps observed steps.
func NewTuner(policy TunerPolicy, maxP int) *Tuner {
	if maxP < 1 {
		maxP = 1
	}
	return &Tuner{policy: policy.withDefaults(), maxP: maxP}
}

// Policy returns the resolved (defaulted) policy.
func (tn *Tuner) Policy() TunerPolicy { return tn.policy }

// LastKnob names the most recent knob change ("" before any).
func (tn *Tuner) LastKnob() string { return tn.lastKnob }

// Observe consumes one traced step's summary, updating the signal
// streaks. Untraced or empty summaries leave the streaks alone (but the
// cooldown still advances — time passed).
func (tn *Tuner) Observe(sum *trace.Summary) {
	tn.sinceChange++
	lockFrac, barrierFrac, skew, ok := signals(sum)
	if !ok {
		return
	}
	bump(&tn.lockStreak, lockFrac > tn.policy.MaxLockWaitFrac)
	bump(&tn.barrierStreak, barrierFrac > tn.policy.MaxBarrierFrac)
	bump(&tn.skewStreak, skew > tn.policy.MaxSkew)
	bump(&tn.recoverStreak, barrierFrac < tn.policy.MinBarrierFrac && skew < tn.policy.MaxSkew)
}

// Propose returns the next configuration when a knob should move, or
// (cur, "", false) to stand pat. Priorities: lock contention first (it
// serializes everything), then oversynchronization, then spatial skew,
// then parallelism recovery. Firing resets every streak and the cooldown.
func (tn *Tuner) Propose(cur core.Config, n int) (core.Config, string, bool) {
	if tn.sinceChange < tn.policy.MinSteps {
		return cur, "", false
	}
	s := tn.policy.Streak
	next := cur
	knob := ""
	switch {
	case tn.lockStreak >= s && cur.LeafCap < tn.policy.MaxLeafCap:
		next.LeafCap = min(cur.LeafCap*2, tn.policy.MaxLeafCap)
		knob = KnobLeafCap
	case tn.barrierStreak >= s && cur.P > 1:
		next.P = cur.P / 2
		knob = KnobPDown
	case tn.skewStreak >= s && resolveSpaceThreshold(cur, n) > cur.LeafCap:
		th := resolveSpaceThreshold(cur, n) / 2
		if th < cur.LeafCap {
			th = cur.LeafCap
		}
		next.SpaceThreshold = th
		knob = KnobSpaceThreshold
	case tn.recoverStreak >= s && cur.P < tn.maxP:
		next.P = min(cur.P*2, tn.maxP)
		knob = KnobPUp
	default:
		return cur, "", false
	}
	tn.lockStreak, tn.barrierStreak, tn.skewStreak, tn.recoverStreak = 0, 0, 0, 0
	tn.sinceChange = 0
	tn.lastKnob = knob
	return next, knob, true
}

// resolveSpaceThreshold is the threshold a SPACE build of n bodies under
// cfg would use (SpaceThreshold 0 means max(LeafCap, n/(4·P)) at build
// time), so the tuner halves the *effective* threshold, not a literal
// zero.
func resolveSpaceThreshold(cfg core.Config, n int) int {
	cfg = cfg.Normalized()
	return core.SpaceThreshold(cfg.SpaceThreshold, cfg.LeafCap, n, cfg.P)
}

// signals derives the tuner's three fractions from one step's summary.
// The denominator sums partition, insert, moments, and barrier time
// (subdivide is nested inside insert and would double-count).
func signals(sum *trace.Summary) (lockFrac, barrierFrac, skew float64, ok bool) {
	if sum == nil || len(sum.PerProc) == 0 {
		return 0, 0, 0, false
	}
	var totalNs, lockNs, barrierNs int64
	for w := range sum.PerProc {
		ps := &sum.PerProc[w]
		totalNs += ps.PhaseNs[trace.PhasePartition] + ps.PhaseNs[trace.PhaseInsert] +
			ps.PhaseNs[trace.PhaseMoments] + ps.PhaseNs[trace.PhaseBarrier]
		lockNs += ps.LockWaitNs
		barrierNs += ps.PhaseNs[trace.PhaseBarrier]
	}
	if totalNs <= 0 {
		return 0, 0, 0, false
	}
	return float64(lockNs) / float64(totalNs), float64(barrierNs) / float64(totalNs),
		sum.ImbalanceRatio(), true
}

func bump(streak *int, over bool) {
	if over {
		*streak++
	} else {
		*streak = 0
	}
}
