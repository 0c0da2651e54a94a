package trace

// ProcSummary is one processor's aggregated trace: time in each build
// sub-phase, lock-event totals, and hold-time percentiles. These are
// maintained incrementally at emit time, so they cover every event the
// processor emitted even when the ring buffer wrapped and dropped the
// oldest timeline records.
type ProcSummary struct {
	PhaseNs    [NumPhases]int64 `json:"phase_ns"`
	Spans      int64            `json:"spans"`
	LockEvents int64            `json:"lock_events"`
	LockWaitNs int64            `json:"lock_wait_ns"`
	LockHoldNs int64            `json:"lock_hold_ns"`
	HoldP50Ns  int64            `json:"hold_p50_ns"`
	HoldP95Ns  int64            `json:"hold_p95_ns"`
	HoldMaxNs  int64            `json:"hold_max_ns"`
	Dropped    int64            `json:"dropped,omitempty"` // timeline events evicted by ring wrap
}

// Summary is the per-processor aggregate view of one traced build,
// surfaced on core.Metrics and audited by internal/verify against the
// builder's own lock counters.
type Summary struct {
	PerProc []ProcSummary `json:"per_proc"`
}

// Summarize snapshots the recorder's aggregates. Call between builds.
func (r *Recorder) Summarize() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{PerProc: make([]ProcSummary, len(r.bufs))}
	for w := range r.bufs {
		b := &r.bufs[w]
		ps := &s.PerProc[w]
		ps.PhaseNs = b.phaseNs
		ps.Spans = b.spans
		ps.LockEvents = b.lockEvents
		ps.LockWaitNs = b.lockWaitNs
		ps.LockHoldNs = b.lockHoldNs
		ps.HoldP50Ns = b.hold.Quantile(0.50)
		ps.HoldP95Ns = b.hold.Quantile(0.95)
		ps.HoldMaxNs = b.hold.MaxNs
		if over := b.next - int64(len(b.ev)); over > 0 {
			ps.Dropped = over
		}
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
