package par

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"
)

// BenchmarkDo times back-to-back Do calls — the fork/join every phase of
// a build pays — at p = 2, GOMAXPROCS and 4×GOMAXPROCS, with an empty
// share and a ≈ 50 µs one, the latter also with 50 µs of serial work
// between calls, as a build's decide step puts between two forks. Beside
// ns/op it reports the start lag of the forked shares (w ≥ 1): the time
// from the caller entering Do to the share starting, p50 and p95 in µs,
// over the last lagSamples calls.
func BenchmarkDo(b *testing.B) {
	const lagSamples = 4096
	procs := runtime.GOMAXPROCS(0)
	ps := []int{2, procs, 4 * procs}
	slices.Sort(ps)
	for _, p := range slices.Compact(ps) {
		for _, c := range []struct{ work, gap time.Duration }{
			{0, 0}, {50 * time.Microsecond, 0}, {50 * time.Microsecond, 50 * time.Microsecond},
		} {
			work, gap := c.work, c.gap
			b.Run(fmt.Sprintf("p=%d/share=%dus/gap=%dus", p, work.Microseconds(), gap.Microseconds()), func(b *testing.B) {
				n := min(b.N, lagSamples)
				lags := make([]time.Duration, n*(p-1))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					busy(gap)
					row := lags[i%n*(p-1):]
					t0 := time.Now()
					Do(p, func(w int) {
						if w > 0 {
							row[w-1] = time.Since(t0)
						}
						busy(work)
					})
				}
				b.StopTimer()
				slices.Sort(lags)
				b.ReportMetric(float64(lags[len(lags)/2])/1e3, "p50-lag-µs")
				b.ReportMetric(float64(lags[len(lags)*95/100])/1e3, "p95-lag-µs")
			})
		}
	}
}

// busy keeps the calling goroutine on its core for d.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}
