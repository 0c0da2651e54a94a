package par

import "sync/atomic"

// Runs is how a fork's shares take work from one pool of items, the
// work-sharing Becciani et al. balance their treecode by: every share
// owns one contiguous run of the items and takes from its front; a share
// whose run is empty takes single items from the back of whichever run
// has the most left; every share stops once all runs are empty. The runs
// keep two shares off neighbouring items, and so off each other's cache
// lines, while the steals balance the tail one item at a time. A run is
// one padded word packing [lo, hi), so every take is one
// compare-and-swap and every item is taken exactly once.
type Runs []struct {
	span atomic.Uint64 // lo | hi<<32
	_    [56]byte
}

// EvenRuns deals items 0..n-1 to p shares, share w's run being
// [n·w/p, n·(w+1)/p).
func EvenRuns(n, p int) Runs {
	rs := make(Runs, p)
	for w := range rs {
		rs[w].span.Store(uint64(n*w/p) | uint64(n*(w+1)/p)<<32)
	}
	return rs
}

// Reset deals share w the items [bounds[w], bounds[w+1]), for
// len(bounds)-1 shares, in place: a caller that deals every build keeps
// one Runs, which grows only when it must.
func (rs *Runs) Reset(bounds []int) {
	if p := len(bounds) - 1; cap(*rs) < p {
		*rs = make(Runs, p)
	} else {
		*rs = (*rs)[:p]
	}
	for w := range *rs {
		(*rs)[w].span.Store(uint64(bounds[w]) | uint64(bounds[w+1])<<32)
	}
}

// Next takes share w's next item: the front of its own run, else the
// back of the run with the most left, or -1 once every run (they only
// shrink) is empty.
func (rs Runs) Next(w int) int {
	own := &rs[w].span
	for v := own.Load(); uint32(v) < uint32(v>>32); v = own.Load() {
		if own.CompareAndSwap(v, v+1) {
			return int(uint32(v))
		}
	}
	for {
		victim, most, vv := -1, uint32(0), uint64(0)
		for i := range rs {
			v := rs[i].span.Load()
			if left := uint32(v>>32) - uint32(v); left > most {
				victim, most, vv = i, left, v
			}
		}
		if victim < 0 {
			return -1
		}
		if rs[victim].span.CompareAndSwap(vv, vv-1<<32) {
			return int(vv>>32) - 1
		}
	}
}
