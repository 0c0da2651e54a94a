package trace

import "testing"

// TestNilSafety pins the nil contract: a nil recorder is inactive and
// ignores SetEnabled, and a nil summary reads as no time at all.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Active() {
		t.Error("nil recorder reports Active")
	}
	r.SetEnabled(true) // must not panic
	if r.Active() {
		t.Error("nil recorder became Active")
	}
	var s *Summary
	if s.PhaseTotals() != [NumPhases]int64{} {
		t.Errorf("nil summary PhaseTotals = %v, want zeros", s.PhaseTotals())
	}
	if live := New(2); live.Active() {
		t.Error("fresh recorder should start disabled")
	}
}

func TestImbalanceRatioEdgeCases(t *testing.T) {
	if got := (*Summary)(nil).ImbalanceRatio(); got != 0 {
		t.Errorf("nil summary ImbalanceRatio = %v, want 0", got)
	}
	s := &Summary{PerProc: make([]ProcSummary, 4)}
	if got := s.ImbalanceRatio(); got != 0 {
		t.Errorf("empty ImbalanceRatio = %v, want 0", got)
	}
	// One processor did all the insert work: max/mean = 300/75 = 4.
	s.PerProc[2].PhaseNs[PhaseInsert] = 300
	if got := s.ImbalanceRatio(); got != 4 {
		t.Errorf("ImbalanceRatio = %v, want 4", got)
	}
	// Equal insert times are perfectly balanced.
	for w := range s.PerProc {
		s.PerProc[w].PhaseNs[PhaseInsert] = 500
	}
	if got := s.ImbalanceRatio(); got != 1 {
		t.Errorf("balanced ImbalanceRatio = %v, want 1", got)
	}
}
