package trace

// ProcSummary is one processor's time in each build phase, indexed by
// Phase.
type ProcSummary struct {
	PhaseNs [NumPhases]int64 `json:"phase_ns"`
}

// Summary is the per-processor phase view of one traced build, copied
// from core.Metrics.PerP when the build ends.
type Summary struct {
	PerProc []ProcSummary `json:"per_proc"`
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
