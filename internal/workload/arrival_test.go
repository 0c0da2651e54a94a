package workload

import (
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
		"poisson:rate=NaN",
		"poisson:rate=Inf",
		"poisson:rate=1e300",
		"diurnal:rate=10,period=1s,depth=NaN",
		"diurnal:rate=6e5,period=1s,depth=0.8",
		"diurnal:rate=6e5",
		"bursty:rate=10,on=1ns,off=1ns",
		"diurnal:period=1s,depth=0.1,period2=1s,depth2=0.1,period3=1s,depth3=0.1,period4=1s,depth4=0.1," +
			"period5=1s,depth5=0.1,period6=1s,depth6=0.1,period7=1s,depth7=0.1,period8=1s,depth8=0.1,period9=1s,depth9=0.1",
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

// FuzzParseArrival: every spec ParseArrival accepts lays out a sorted
// 1 s schedule inside the horizon and returns — the bound loadgen's
// run relies on, since it computes the schedule before it arms its
// -timeout.
func FuzzParseArrival(f *testing.F) {
	for _, spec := range []string{
		"poisson:rate=50",
		"poisson:rate=1e6",
		"poisson:rate=NaN",
		"bursty:rate=80,on=1us,off=1us",
		"bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6",
		"diurnal:rate=30,period=3s,depth=0.5,period2=700ms,depth2=0.3",
		"diurnal:rate=10,depth=NaN,period=1ns",
	} {
		f.Add(spec, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		p, err := ParseArrival(spec)
		if err != nil {
			return
		}
		const horizon = time.Second
		sched := p.Schedule(horizon, seed)
		for i, at := range sched {
			if at < 0 || at >= horizon || (i > 0 && at < sched[i-1]) {
				t.Fatalf("%q: arrival %d at %v (schedule of %d)", spec, i, at, len(sched))
			}
		}
	})
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
