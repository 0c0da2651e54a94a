// Package workload is loadgen's traffic model: request arrival
// processes — Poisson, bursty (on/off Markov), diurnal (multi-period
// sinusoid) — scheduled in virtual time, and a replayable NDJSON trace
// format (trace.go). What each request computes is one of phys's mass
// models, which the daemon generates; this package makes no bodies.
//
// Everything is a pure function of (params, horizon, seed): a fixed
// seed is byte-reproducible, which is what makes loadgen reports
// deterministic and the hypothesis experiments replayable.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Process is a request arrival process scheduled in virtual time: a base
// Poisson stream optionally shaped by an on/off Markov burst envelope
// and a multi-period sinusoidal (diurnal) intensity profile. Schedule
// lays out the whole virtual-time horizon up front, deterministically in
// the seed, so a replay never has to wait real time to know what comes
// next — loadgen compresses or expands virtual time as it pleases.
//
// Intensity model: λ(t) = Rate · burst(t) · diurnal(t), where burst(t)
// alternates exponentially-distributed on (1) and off (0) phases with
// means OnMean/OffMean, and diurnal(t) = max(0, 1 + Σ Depthᵢ·sin(2πt/Periodᵢ)).
// Arrivals are drawn by thinning against λmax = Rate·(1+Σ|Depthᵢ|).
type Process struct {
	// Kind is the canonical family name: poisson, bursty, diurnal, or
	// trace (a deterministic replay of Trace).
	Kind string
	// Rate is the base intensity in arrivals per (virtual) second.
	Rate float64
	// OnMean/OffMean are the burst envelope's mean phase durations;
	// both zero means always-on.
	OnMean, OffMean time.Duration
	// Harmonics shape the diurnal profile; empty means flat.
	Harmonics []Harmonic
	// Trace is the literal schedule for Kind "trace".
	Trace []time.Duration
}

// Harmonic is one sinusoidal component of the diurnal profile.
type Harmonic struct {
	Period time.Duration
	Depth  float64
}

// A schedule must be cheap to lay out, and a gap or phase that rounds
// to 0 ns (or a NaN) would never reach the horizon. maxRate bounds the
// thinning envelope Rate·(1+Σ Depthᵢ) at a mean gap of 1 µs, minPhase
// bounds the burst phases from below, and maxHarmonics bounds the
// profile each candidate arrival is thinned against.
const (
	maxRate      = 1e6
	minPhase     = time.Microsecond
	maxHarmonics = 8
)

// ArrivalNames lists the valid arrival process families.
func ArrivalNames() []string { return []string{"poisson", "bursty", "diurnal", "trace"} }

// ParseArrival parses a CLI arrival spec: family, optionally followed by
// colon-separated k=v options, e.g.
//
//	poisson:rate=50
//	bursty:rate=80,on=300ms,off=200ms
//	diurnal:rate=40,period=2s,depth=0.8
//	bursty:rate=60,on=250ms,off=250ms,period=1s,depth=0.6   (bursty-diurnal)
//
// period/depth may repeat (period2=…, depth2=…) for multi-period
// profiles. Durations use Go syntax (300ms, 2s). Rates and depths must
// be finite, the peak rate at most 1e6/s, on/off phases at least 1µs,
// and the period/depth pairs at most 8.
func ParseArrival(s string) (Process, error) {
	kind, rest, _ := strings.Cut(s, ":")
	kind = strings.TrimSpace(kind)
	p := Process{Kind: kind, Rate: 10}
	switch kind {
	case "poisson", "bursty", "diurnal":
	case "trace":
		return Process{}, fmt.Errorf("workload: trace arrivals come from a trace file, not a spec string")
	default:
		return Process{}, fmt.Errorf("workload: unknown arrival process %q (valid: %s)",
			kind, strings.Join(ArrivalNames(), ", "))
	}
	var periods, depths []float64
	if rest != "" {
		for _, kv := range strings.Split(rest, ",") {
			k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
			if !found {
				return Process{}, fmt.Errorf("workload: arrival option %q is not k=v", kv)
			}
			key := strings.TrimRight(k, "0123456789")
			switch key {
			case "rate":
				x, err := strconv.ParseFloat(v, 64)
				if err != nil || !(x > 0 && x <= maxRate) {
					return Process{}, fmt.Errorf("workload: arrival rate %q must be a number in (0,%g]", v, float64(maxRate))
				}
				p.Rate = x
			case "on", "off":
				d, err := time.ParseDuration(v)
				if err != nil || d < minPhase {
					return Process{}, fmt.Errorf("workload: arrival %s %q must be a duration of at least %s", key, v, minPhase)
				}
				if key == "on" {
					p.OnMean = d
				} else {
					p.OffMean = d
				}
			case "period":
				d, err := time.ParseDuration(v)
				if err != nil || d <= 0 {
					return Process{}, fmt.Errorf("workload: arrival period %q must be a positive duration", v)
				}
				periods = append(periods, float64(d))
			case "depth":
				x, err := strconv.ParseFloat(v, 64)
				if err != nil || !(x > 0 && x <= 1) {
					return Process{}, fmt.Errorf("workload: arrival depth %q must be in (0,1]", v)
				}
				depths = append(depths, x)
			default:
				return Process{}, fmt.Errorf("workload: arrival process %s has no option %q (valid: rate, on, off, period, depth)", kind, k)
			}
		}
	}
	if len(periods) != len(depths) {
		return Process{}, fmt.Errorf("workload: arrival needs matching period/depth pairs (got %d periods, %d depths)",
			len(periods), len(depths))
	}
	if len(periods) > maxHarmonics {
		return Process{}, fmt.Errorf("workload: arrival has %d period/depth pairs, at most %d", len(periods), maxHarmonics)
	}
	for i := range periods {
		p.Harmonics = append(p.Harmonics, Harmonic{Period: time.Duration(periods[i]), Depth: depths[i]})
	}
	// Family defaults: bursty without an envelope and diurnal without a
	// profile would silently degenerate to plain Poisson.
	switch kind {
	case "bursty":
		if p.OnMean == 0 && p.OffMean == 0 {
			p.OnMean, p.OffMean = 300*time.Millisecond, 200*time.Millisecond
		}
		if p.OnMean == 0 || p.OffMean == 0 {
			return Process{}, fmt.Errorf("workload: bursty arrivals need both on and off means")
		}
	case "diurnal":
		if len(p.Harmonics) == 0 {
			p.Harmonics = []Harmonic{{Period: 2 * time.Second, Depth: 0.8}}
		}
	case "poisson":
		if p.OnMean != 0 || p.OffMean != 0 {
			return Process{}, fmt.Errorf("workload: poisson arrivals take no on/off envelope (use bursty)")
		}
	}
	if peak := p.peakRate(); peak > maxRate {
		return Process{}, fmt.Errorf("workload: arrival peak rate %g/s exceeds %g/s", peak, float64(maxRate))
	}
	return p, nil
}

// TraceProcess wraps a literal schedule as a replayable process.
func TraceProcess(offsets []time.Duration) Process {
	return Process{Kind: "trace", Trace: offsets}
}

// Name renders the process canonically for reports.
func (p Process) Name() string {
	var b strings.Builder
	b.WriteString(p.Kind)
	if p.Kind == "trace" {
		fmt.Fprintf(&b, ":events=%d", len(p.Trace))
		return b.String()
	}
	fmt.Fprintf(&b, ":rate=%g", p.Rate)
	if p.OnMean > 0 || p.OffMean > 0 {
		fmt.Fprintf(&b, ",on=%s,off=%s", p.OnMean, p.OffMean)
	}
	for _, h := range p.Harmonics {
		fmt.Fprintf(&b, ",period=%s,depth=%g", h.Period, h.Depth)
	}
	return b.String()
}

// MeanRate returns the analytic long-run arrival rate (per second): the
// base rate scaled by the on-fraction of the burst envelope. The clamped
// sinusoid averages to 1 over whole periods as long as Σ depths ≤ 1.
func (p Process) MeanRate() float64 {
	if p.Kind == "trace" {
		return 0
	}
	r := p.Rate
	if p.OnMean > 0 && p.OffMean > 0 {
		r *= float64(p.OnMean) / float64(p.OnMean+p.OffMean)
	}
	return r
}

// peakRate is the thinning envelope λmax = Rate·(1+Σ|Depthᵢ|).
func (p Process) peakRate() float64 {
	lmax := p.Rate
	for _, h := range p.Harmonics {
		lmax += p.Rate * math.Abs(h.Depth)
	}
	return lmax
}

// diurnal evaluates the clamped sinusoidal intensity factor at virtual
// time t.
func (p Process) diurnal(t time.Duration) float64 {
	f := 1.0
	for _, h := range p.Harmonics {
		f += h.Depth * math.Sin(2*math.Pi*float64(t)/float64(h.Period))
	}
	return math.Max(0, f)
}

// Schedule lays out every arrival in [0, horizon) as offsets from the
// start, sorted ascending — a deterministic pure function of (horizon,
// seed, params). Trace processes return their literal schedule clipped
// to the horizon.
func (p Process) Schedule(horizon time.Duration, seed int64) []time.Duration {
	if p.Kind == "trace" {
		out := make([]time.Duration, 0, len(p.Trace))
		for _, t := range p.Trace {
			if t < horizon {
				out = append(out, t)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	lmax := p.peakRate()
	var out []time.Duration

	// Walk burst phases; within an on phase, thin a rate-λmax Poisson
	// stream against the diurnal profile.
	bursty := p.OnMean > 0 && p.OffMean > 0
	t := time.Duration(0)
	for t < horizon {
		onEnd := horizon
		if bursty {
			on := time.Duration(rng.ExpFloat64() * float64(p.OnMean))
			if t+on < onEnd {
				onEnd = t + on
			}
		}
		for {
			gap := time.Duration(rng.ExpFloat64() / lmax * float64(time.Second))
			t += gap
			if t >= onEnd {
				break
			}
			if rng.Float64()*lmax < p.Rate*p.diurnal(t) {
				out = append(out, t)
			}
		}
		if !bursty {
			break
		}
		// t overshot into the off phase; add the off dwell from where the
		// on phase ended.
		off := time.Duration(rng.ExpFloat64() * float64(p.OffMean))
		t = onEnd + off
	}
	return out
}

// Pace converts a virtual schedule offset into the real delay to wait,
// compressing virtual time by speedup (0 or negative = replay as fast
// as possible while preserving order).
func Pace(offset, elapsed time.Duration, speedup float64) time.Duration {
	if speedup <= 0 {
		return 0
	}
	target := time.Duration(float64(offset) / speedup)
	if target <= elapsed {
		return 0
	}
	return target - elapsed
}
