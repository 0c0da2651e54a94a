package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// sorted returns an ascending copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), or NaN for an empty sample so a section that measured
// nothing cannot pass the finite-value check at emission.
func median(xs []float64) float64 { return percentile(xs, 50) }

// pick returns xs[i] for every index in idx.
func pick(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}

// ratioMedian is the median of a[i]/b[i], two timings taken close
// together, so that what the host did to both cancels. It is how an
// end-to-end timing is reported — b is then the yardstick of the cycle
// each sample was taken in (yardstick.go) — and how a speedup is: a and b
// are then the p=1 and pmax builds of the same rounds.
func ratioMedian(a, b []float64) float64 {
	r := make([]float64, len(a))
	for i := range a {
		r[i] = ratio(a[i], b[i])
	}
	return median(r)
}

// percentile returns the q-th percentile (0..100) by linear interpolation
// between closest ranks.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of an ascending sample
// as Python's statistics.quantiles(xs, n=4) does (the driver's measure
// of spread): the value at position k(n+1)/4, interpolated, clamped to
// the sample.
func quartiles(s []float64) (q1, q3 float64) {
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1))/4 - 1
		lo := min(max(int(math.Floor(pos)), 0), len(s)-1)
		hi := min(lo+1, len(s)-1)
		return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	}
	return at(1), at(3)
}

// tailPercentile is the highest whole percentile with at least ten
// samples beyond it — the tail a sample of n can support. The fixed-name
// p95 metrics are printed beside it so a short run shows how thin its
// tail is.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Floor(100 * (1 - 10/float64(n)))
}

// ratio returns a/b, or NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// metrics is one run's named values; units live in BENCHMARK.json.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }
