package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestScheduleEmpiricalRate checks each stochastic arrival family against
// its analytic mean rate over a long virtual horizon. Virtual time is
// free, so the horizon can be hours and tolerances tight without the
// test taking more than milliseconds of wall clock.
func TestScheduleEmpiricalRate(t *testing.T) {
	const horizon = 30 * time.Minute
	for _, tc := range []struct {
		spec string
	}{
		{"poisson:rate=50"},
		{"bursty:rate=80,on=300ms,off=200ms"},
		{"diurnal:rate=40,period=2s,depth=0.8"},
		{"bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6"},
		{"diurnal:rate=30,period=3s,depth=0.5,period2=700ms,depth2=0.3"},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			p, err := ParseArrival(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 99} {
				sched := p.Schedule(horizon, seed)
				got := float64(len(sched)) / horizon.Seconds()
				want := p.MeanRate()
				if got < 0.9*want || got > 1.1*want {
					t.Errorf("seed %d: empirical rate %.2f/s, want within 10%% of analytic %.2f/s (%d arrivals)",
						seed, got, want, len(sched))
				}
				for i := 1; i < len(sched); i++ {
					if sched[i] < sched[i-1] {
						t.Fatalf("seed %d: schedule not sorted at %d", seed, i)
					}
				}
				if len(sched) > 0 && (sched[0] < 0 || sched[len(sched)-1] >= horizon) {
					t.Errorf("seed %d: schedule escapes [0, horizon)", seed)
				}
			}
		})
	}
}

// TestScheduleDeterministic pins that a schedule is a pure function of
// (params, horizon, seed) — the property loadgen's byte-identical
// reports depend on.
func TestScheduleDeterministic(t *testing.T) {
	p, err := ParseArrival("bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Schedule(10*time.Second, 42)
	b := p.Schedule(10*time.Second, 42)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := p.Schedule(10*time.Second, 43)
	if len(a) == len(c) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical schedules")
		}
	}
}

// TestDiurnalModulation checks the sinusoid actually shapes intensity:
// over many periods, the half-period around the peak must collect
// substantially more arrivals than the trough half.
func TestDiurnalModulation(t *testing.T) {
	p, err := ParseArrival("diurnal:rate=50,period=2s,depth=0.8")
	if err != nil {
		t.Fatal(err)
	}
	const period = 2 * time.Second
	sched := p.Schedule(5*time.Minute, 7)
	peak, trough := 0, 0
	for _, at := range sched {
		phase := float64(at%period) / float64(period)
		// sin peaks at phase 0.25, troughs at 0.75.
		if phase < 0.5 {
			peak++
		} else {
			trough++
		}
	}
	if peak < 2*trough {
		t.Errorf("peak half collected %d arrivals vs trough half %d, want ≥ 2x modulation", peak, trough)
	}
}

// TestTraceRoundTrip generates a schedule, writes it as NDJSON, reads it
// back, and replays it: the replayed schedule must be identical, and the
// re-encoded bytes must match the first encoding (canonical format).
func TestTraceRoundTrip(t *testing.T) {
	p, err := ParseArrival("poisson:rate=100")
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule(5*time.Second, 1)
	evs := EventsFromOffsets(sched, "session")

	var buf bytes.Buffer
	if err := WriteTrace(&buf, evs); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	got, err := ReadTrace(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	replayed := TraceProcess(Offsets(got)).Schedule(5*time.Second, 0 /* seed unused */)
	if len(replayed) != len(sched) {
		t.Fatalf("replay has %d arrivals, want %d", len(replayed), len(sched))
	}
	for i := range sched {
		if replayed[i] != sched[i] {
			t.Fatalf("replay diverges at %d: %v vs %v", i, replayed[i], sched[i])
		}
		if got[i].Op != "session" {
			t.Fatalf("event %d lost its op: %q", i, got[i].Op)
		}
	}

	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Error("re-encoding a read trace changed its bytes; trace format is not canonical")
	}
}

// TestReadTraceErrors pins that malformed traces fail with the offending
// line number — the difference between a fixable hand-edited trace and a
// mystery.
func TestReadTraceErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in, wantSub string
	}{
		{"bad-json", "{\"at_ns\":0}\nnot json\n", "line 2"},
		{"unknown-field", "{\"at_ns\":0,\"when\":5}\n", "line 1"},
		{"negative", "{\"at_ns\":0}\n\n{\"at_ns\":-3}\n", "line 3"},
		{"backwards", "{\"at_ns\":100}\n{\"at_ns\":50}\n", "line 2"},
		{"wrong-type", "{\"at_ns\":\"soon\"}\n", "line 1"},
		{"second-object", "{\"at_ns\":0}\n{\"at_ns\":5} {\"at_ns\":1}\n", "line 2"},
		{"trailing-garbage", "{\"at_ns\":7}garbage\n", "line 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatal("malformed trace parsed without error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not name %q", err, tc.wantSub)
			}
		})
	}
	// Blank lines and a trailing newline are fine.
	evs, err := ReadTrace(strings.NewReader("\n{\"at_ns\":5}\n\n{\"at_ns\":9,\"op\":\"build\"}\n"))
	if err != nil {
		t.Fatalf("lenient trace rejected: %v", err)
	}
	if len(evs) != 2 || evs[1].Op != "build" {
		t.Fatalf("lenient trace parsed wrong: %+v", evs)
	}
}

// FuzzReadTrace: every non-blank line of an accepted trace is exactly
// one JSON value, its timestamps are non-negative and non-decreasing,
// and WriteTrace followed by ReadTrace returns the same events.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte("{\"at_ns\":5} {\"at_ns\":1}\n"))
	f.Add([]byte("{\"at_ns\":7}garbage\n"))
	f.Add([]byte("\n{\"at_ns\":5}\n\n{\"at_ns\":9,\"op\":\"build\"}\n"))
	f.Add([]byte("{\"at_ns\":0,\"op\":\"session\"}\r\n{\"at_ns\":0}"))
	f.Fuzz(func(t *testing.T, in []byte) {
		evs, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		for i, line := range bytes.Split(in, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 && !json.Valid(line) {
				t.Fatalf("accepted line %d is not one JSON value: %q", i+1, line)
			}
		}
		for i, e := range evs {
			if e.AtNs < 0 || (i > 0 && e.AtNs < evs[i-1].AtNs) {
				t.Fatalf("accepted event %d at_ns %d (events %+v)", i, e.AtNs, evs)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, evs); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		back, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("reading back a written trace: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip has %d events, want %d", len(back), len(evs))
		}
		for i := range evs {
			if back[i] != evs[i] {
				t.Fatalf("round trip event %d = %+v, want %+v", i, back[i], evs[i])
			}
		}
	})
}

// TestParseArrivalErrors covers the spec grammar's rejection paths.
func TestParseArrivalErrors(t *testing.T) {
	for _, in := range []string{
		"storm",
		"trace",
		"poisson:rate=0",
		"poisson:rate=abc",
		"poisson:on=100ms,off=100ms",
		"bursty:rate=10,on=100ms",
		"diurnal:rate=10,period=1s",
		"diurnal:rate=10,depth=2,period=1s",
		"poisson:loudness=11",
		"poisson:rate",
	} {
		if _, err := ParseArrival(in); err == nil {
			t.Errorf("ParseArrival(%q) succeeded, want error", in)
		}
	}
	p, err := ParseArrival("bursty:rate=80")
	if err != nil {
		t.Fatalf("bursty defaults rejected: %v", err)
	}
	if p.OnMean != 300*time.Millisecond || p.OffMean != 200*time.Millisecond {
		t.Errorf("bursty defaults = on %s, off %s", p.OnMean, p.OffMean)
	}
	if got, want := p.MeanRate(), 48.0; got != want {
		t.Errorf("bursty mean rate = %g, want %g", got, want)
	}
}

// TestPace pins the virtual-to-real time conversion loadgen uses.
func TestPace(t *testing.T) {
	if d := Pace(time.Second, 0, 0); d != 0 {
		t.Errorf("speedup 0 (as fast as possible) waited %s", d)
	}
	if d := Pace(time.Second, 200*time.Millisecond, 1); d != 800*time.Millisecond {
		t.Errorf("1x pace = %s, want 800ms", d)
	}
	if d := Pace(time.Second, 200*time.Millisecond, 4); d != 50*time.Millisecond {
		t.Errorf("4x pace = %s, want 50ms", d)
	}
	if d := Pace(time.Second, 2*time.Second, 1); d != 0 {
		t.Errorf("already-late arrival waited %s", d)
	}
}
