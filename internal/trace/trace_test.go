package trace

import (
	"reflect"
	"testing"
)

// TestNilSafety pins the no-op contract tracing compiles down to when
// disabled: every emit hook on a nil handle (or from a nil recorder)
// must be safe and record nothing.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	if r.Active() {
		t.Error("nil recorder reports Active")
	}
	if got := r.Proc(0); got != nil {
		t.Errorf("nil recorder Proc(0) = %v, want nil", got)
	}
	if s := r.Summarize(); s != nil {
		t.Errorf("nil recorder Summarize = %v, want nil", s)
	}
	r.SetEnabled(true) // must not panic
	r.Reset()

	var p *P
	if p.Active() {
		t.Error("nil handle reports Active")
	}
	if p.Now() != 0 {
		t.Error("nil handle Now != 0")
	}
	p.SpanAt(PhaseInsert, 0, 10)
	p.Span(PhaseInsert, 0)
	p.Locked()

	// Out-of-range processor indexes degrade to the nil handle too.
	live := New(2)
	if got := live.Proc(2); got != nil {
		t.Errorf("Proc(2) on a 2-proc recorder = %v, want nil", got)
	}
	if got := live.Proc(-1); got != nil {
		t.Errorf("Proc(-1) = %v, want nil", got)
	}
}

func TestDisabledRecorderEmitsNothing(t *testing.T) {
	r := New(1)
	p := r.Proc(0)
	if p.Active() {
		t.Fatal("fresh recorder should start disabled")
	}
	p.SpanAt(PhaseInsert, 0, 100)
	p.Locked()
	s := r.Summarize()
	if s.PerProc[0] != (ProcSummary{}) {
		t.Errorf("disabled recorder recorded events: %+v", s.PerProc[0])
	}
}

func TestSpanAndLockAggregation(t *testing.T) {
	r := New(2)
	r.SetEnabled(true)
	p0, p1 := r.Proc(0), r.Proc(1)

	p0.SpanAt(PhasePartition, 0, 100)
	p0.SpanAt(PhaseInsert, 100, 400)
	p0.SpanAt(PhaseInsert, 500, 700)
	p0.Locked()
	p0.Locked()
	p1.SpanAt(PhaseInsert, 100, 600)

	s := r.Summarize()
	ps := s.PerProc[0]
	if ps.PhaseNs[PhasePartition] != 100 || ps.PhaseNs[PhaseInsert] != 500 {
		t.Errorf("phaseNs = %v", ps.PhaseNs)
	}
	if ps.Spans[PhasePartition] != 1 || ps.Spans[PhaseInsert] != 2 || ps.LockEvents != 2 {
		t.Errorf("spans=%v lockEvents=%d, want 1 partition, 2 insert / 2", ps.Spans, ps.LockEvents)
	}
	if got := s.TotalLockEvents(); got != 2 {
		t.Errorf("TotalLockEvents = %d, want 2", got)
	}
	if got := s.LockEventsPerProc(); !reflect.DeepEqual(got, []int64{2, 0}) {
		t.Errorf("LockEventsPerProc = %v", got)
	}
	// Insert imbalance: times {500, 500} -> perfectly balanced.
	if got := s.ImbalanceRatio(); got != 1 {
		t.Errorf("ImbalanceRatio = %v, want 1", got)
	}
}

func TestLockStaging(t *testing.T) {
	r := New(1)
	r.SetEnabled(true)
	p := r.Proc(0)
	for i := 0; i < 3; i++ {
		p.Locked()
	}
	ps := r.Summarize().PerProc[0]
	if ps.LockEvents != 3 {
		t.Errorf("LockEvents = %d, want 3", ps.LockEvents)
	}
	if ps.Spans != [NumPhases]int64{} || ps.PhaseNs != [NumPhases]int64{} {
		t.Errorf("counting locks recorded spans: %+v", ps)
	}
}

func TestResetClearsBetweenBuilds(t *testing.T) {
	r := New(2)
	r.SetEnabled(true)
	r.Proc(0).SpanAt(PhaseInsert, 0, 50)
	r.Proc(1).Locked()
	r.Reset()
	if !r.Active() {
		t.Error("Reset must keep the enabled flag")
	}
	s := r.Summarize()
	for w, ps := range s.PerProc {
		if ps != (ProcSummary{}) {
			t.Errorf("proc %d not cleared by Reset: %+v", w, ps)
		}
	}
}

func TestImbalanceRatioEdgeCases(t *testing.T) {
	if got := (*Summary)(nil).ImbalanceRatio(); got != 0 {
		t.Errorf("nil summary ImbalanceRatio = %v, want 0", got)
	}
	r := New(4)
	if got := r.Summarize().ImbalanceRatio(); got != 0 {
		t.Errorf("empty ImbalanceRatio = %v, want 0", got)
	}
	r.SetEnabled(true)
	// One processor did all the insert work: max/mean = 300/75 = 4.
	r.Proc(2).SpanAt(PhaseInsert, 0, 300)
	if got := r.Summarize().ImbalanceRatio(); got != 4 {
		t.Errorf("ImbalanceRatio = %v, want 4", got)
	}
}
