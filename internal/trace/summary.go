package trace

// ProcSummary is one processor's aggregated trace: its span count and
// time in each build sub-phase, and its lock acquisitions.
type ProcSummary struct {
	PhaseNs    [NumPhases]int64 `json:"phase_ns"`
	Spans      [NumPhases]int64 `json:"spans"`
	LockEvents int64            `json:"lock_events"`
}

// Summary is the per-processor aggregate view of one traced build,
// surfaced on core.Metrics and audited by internal/verify against the
// builder's own counters.
type Summary struct {
	PerProc []ProcSummary `json:"per_proc"`
}

// Summarize snapshots the recorder's counters. Call between builds.
func (r *Recorder) Summarize() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{PerProc: make([]ProcSummary, len(r.bufs))}
	for w := range r.bufs {
		s.PerProc[w] = r.bufs[w].sum
	}
	return s
}

// TotalLockEvents sums lock events across processors; it must equal
// core.Metrics.TotalLocks() for the build the trace covers.
func (s *Summary) TotalLockEvents() int64 {
	if s == nil {
		return 0
	}
	var t int64
	for i := range s.PerProc {
		t += s.PerProc[i].LockEvents
	}
	return t
}

// LockEventsPerProc returns the per-processor lock-event counts, aligned
// with core.Metrics.LocksPerProc.
func (s *Summary) LockEventsPerProc() []int64 {
	if s == nil {
		return nil
	}
	out := make([]int64, len(s.PerProc))
	for i := range s.PerProc {
		out[i] = s.PerProc[i].LockEvents
	}
	return out
}

// PhaseTotals sums each phase's time across processors, indexed by
// Phase.
func (s *Summary) PhaseTotals() [NumPhases]int64 {
	var out [NumPhases]int64
	if s == nil {
		return out
	}
	for i := range s.PerProc {
		for ph := 0; ph < NumPhases; ph++ {
			out[ph] += s.PerProc[i].PhaseNs[ph]
		}
	}
	return out
}

// ImbalanceRatio is max/mean of per-processor insert-phase time — the
// load-imbalance figure of merit from the paper's Table 2. It returns 1
// for a perfectly balanced build and 0 when no insert time was recorded
// (e.g. tracing was disabled).
func (s *Summary) ImbalanceRatio() float64 {
	if s == nil || len(s.PerProc) == 0 {
		return 0
	}
	var sum, max int64
	for i := range s.PerProc {
		v := s.PerProc[i].PhaseNs[PhaseInsert]
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.PerProc))
	return float64(max) / mean
}
