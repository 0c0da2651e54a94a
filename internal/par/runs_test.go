package par

import (
	"fmt"
	"sync"
	"testing"
)

// runsCase is one deal: the runs' bounds, and how to make them.
type runsCase struct {
	name   string
	bounds []int
	make   func() Runs
}

// runsCases deals p shares even runs, uneven ones (one share holding
// everything, run lengths growing with w, every other run empty) and
// nothing at all.
func runsCases(p int) []runsCase {
	at := func(name string, lens ...int) runsCase {
		bounds := make([]int, p+1)
		for w := range p {
			bounds[w+1] = bounds[w] + lens[w%len(lens)]
		}
		return runsCase{name, bounds, func() (rs Runs) { rs.Reset(bounds); return rs }}
	}
	var cases []runsCase
	for _, n := range []int{p - 1, 1000} {
		bounds := make([]int, p+1)
		for w := range bounds {
			bounds[w] = n * w / p
		}
		cases = append(cases, runsCase{fmt.Sprintf("even-%d", n), bounds, func() Runs { return EvenRuns(n, p) }})
	}
	last := make([]int, p)
	last[p-1] = 500
	growing := make([]int, p)
	for w := range growing {
		growing[w] = 1 + 40*w*w
	}
	return append(cases, at("all-in-last", last...), at("growing", growing...), at("every-other-empty", 0, 70), at("empty", 0))
}

// takeAll has the shares sharers call Next on rs concurrently until it
// returns -1, and fails unless together they took every item of
// [0, n) exactly once. A share stops after n+1 takes, so runs that never
// empty fail rather than hang.
func takeAll(t *testing.T, rs Runs, n int, sharers []int) {
	t.Helper()
	taken := make([][]int, len(rs))
	var wg sync.WaitGroup
	for _, w := range sharers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := rs.Next(w); i >= 0 && len(taken[w]) <= n; i = rs.Next(w) {
				taken[w] = append(taken[w], i)
			}
		}()
	}
	wg.Wait()
	count := make([]int, n)
	for w, items := range taken {
		for _, i := range items {
			if i < 0 || i >= n {
				t.Fatalf("share %d took item %d, outside [0, %d)", w, i, n)
			}
			count[i]++
		}
	}
	for i, c := range count {
		if c != 1 {
			t.Fatalf("item %d taken %d times, want once", i, c)
		}
	}
}

// TestRunsTakeEveryItemOnce: however the runs are dealt, shares calling
// Next at once take every item exactly once, and Next then returns -1.
func TestRunsTakeEveryItemOnce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, c := range runsCases(p) {
			t.Run(fmt.Sprintf("p=%d/%s", p, c.name), func(t *testing.T) {
				all := make([]int, p)
				for w := range all {
					all[w] = w
				}
				for range 50 {
					rs := c.make()
					takeAll(t, rs, c.bounds[p], all)
					for w := range rs {
						if i := rs.Next(w); i != -1 {
							t.Fatalf("share %d took %d after the runs emptied", w, i)
						}
					}
				}
			})
		}
	}
}

// TestRunsShareStartsAtItsFront: a share with items takes the front of
// its own run first. Shares whose runs are empty, and so start by
// stealing, call Next only once every other share has taken its first.
func TestRunsShareStartsAtItsFront(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8} {
		for _, c := range runsCases(p) {
			t.Run(fmt.Sprintf("p=%d/%s", p, c.name), func(t *testing.T) {
				for range 50 {
					rs := c.make()
					first := make([]int, p)
					var started, wg sync.WaitGroup
					for w := range p {
						if c.bounds[w] < c.bounds[w+1] {
							started.Add(1)
						}
					}
					for w := range p {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if c.bounds[w] == c.bounds[w+1] {
								started.Wait()
								first[w] = rs.Next(w)
								return
							}
							first[w] = rs.Next(w)
							started.Done()
						}()
					}
					wg.Wait()
					for w := range p {
						if lo, hi := c.bounds[w], c.bounds[w+1]; lo < hi && first[w] != lo {
							t.Fatalf("share %d of run [%d, %d) took %d first", w, lo, hi, first[w])
						}
					}
				}
			})
		}
	}
}

// TestRunsDrainAnAbsentShare: when one share never calls Next — a
// helper that starts after the others are done — the others take its
// run too, every item exactly once.
func TestRunsDrainAnAbsentShare(t *testing.T) {
	for _, p := range []int{2, 3, 8} {
		for _, c := range runsCases(p) {
			for absent := range p {
				t.Run(fmt.Sprintf("p=%d/%s/absent=%d", p, c.name, absent), func(t *testing.T) {
					var present []int
					for w := range p {
						if w != absent {
							present = append(present, w)
						}
					}
					for range 20 {
						takeAll(t, c.make(), c.bounds[p], present)
					}
				})
			}
		}
	}
}
