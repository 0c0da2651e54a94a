//go:build ignore

// spinprobe prints how many cores two goroutines really get right now:
// the loop rate two spinning goroutines reach together, divided by the
// rate one reaches alone, the median of five such ratios taken 40 ms at a
// time. On a guest whose two vCPUs sometimes share one core's throughput
// it reads ≈ 2.0 in one regime and ≈ 1.0 in the other, and every same-run
// speedup follows it on any commit; scripts/pairs.sh stamps each
// benchmark run with it.
//
//	go run scripts/spinprobe.go
package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

const window = 40 * time.Millisecond

// rate spins a xorshift for window and returns its steps per second; the
// clock is read once per 4096 steps so the loop, not the clock, is timed.
func rate() float64 {
	start := time.Now()
	x, n := uint64(1), 0
	for {
		for i := 0; i < 4096; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		n += 4096
		if el := time.Since(start); el >= window {
			if x == 0 { // never: xorshift leaves 0; reading x keeps the loop
				panic("spinprobe: xorshift reached 0")
			}
			return float64(n) / el.Seconds()
		}
	}
}

// together runs g spinners at once and sums their rates.
func together(g int) float64 {
	rates := make([]float64, g)
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rates[i] = rate()
		}()
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum
}

func main() {
	ratios := make([]float64, 5)
	for i := range ratios {
		one := together(1)
		ratios[i] = together(2) / one
	}
	sort.Float64s(ratios)
	fmt.Printf("%.2f\n", ratios[len(ratios)/2])
}
