package core

// FallbackPolicy is what a session is opened with to decide when it gives
// up on repair. It has no fields: the one rule below has no knob.
type FallbackPolicy struct{}

// rebuildRule decides, from the time a session's steps take, when the
// next step should build a fresh tree instead of repairing the resident
// one. UPDATE never collapses a cell, so under motion a repaired tree
// decays and each repair costs more than one over a fresh tree would. The
// rule rebuilds once the time repairs have spent beyond a fresh tree's
// cost would have paid for the rebuild:
//
//   - rebuild is the wall time of the last step that built fresh;
//   - base, the fresh tree's step cost, is the least of the first
//     baseRepairs repairs after it;
//   - every later repair adds max(0, its time − base) to excess;
//   - once excess ≥ rebuild, the next step builds fresh.
//
// A fresh build resets all three. Clamping each step's excess at zero
// keeps a fast step from banking credit against the decay, and base is a
// minimum so one slow step (a collapse) in the baseline cannot inflate
// it. Times are nanoseconds.
type rebuildRule struct {
	rebuild, base, excess int64
	repairs               int // since the last fresh build
}

// baseRepairs is how many repairs after a fresh build measure its cost.
const baseRepairs = 3

// observe takes one step's wall time and whether that step built fresh,
// and reports whether the next step should.
func (r *rebuildRule) observe(ns int64, fresh bool) bool {
	if fresh {
		*r = rebuildRule{rebuild: ns}
		return false
	}
	r.repairs++
	switch {
	case r.repairs == 1:
		r.base = ns
	case r.repairs <= baseRepairs:
		r.base = min(r.base, ns)
	default:
		r.excess += max(0, ns-r.base)
	}
	return r.repairs > baseRepairs && r.excess >= r.rebuild
}
