package octree

import "fmt"

// Stats summarizes a built tree for reports and regression tests.
type Stats struct {
	Cells      int     // live internal cells
	Leaves     int     // live leaves
	Bodies     int     // bodies across live leaves
	MaxDepth   int     // deepest node
	AvgDepth   float64 // mean leaf depth
	AvgOcc     float64 // mean bodies per leaf
	MaxLeafLen int     // largest leaf (>LeafCap only at MaxDepth)
}

// statsAcc accumulates Stats node by node. The two means are ratios of
// integer sums taken once at the end, so accumulators filled by different
// workers merge to exactly what a single walk yields.
type statsAcc struct {
	Stats
	depthSum int64 // Σ leaf depth
}

func (a *statsAcc) cell(depth int) {
	a.Cells++
	a.MaxDepth = max(a.MaxDepth, depth)
}

func (a *statsAcc) leaf(depth, nBodies int) {
	a.Leaves++
	a.Bodies += nBodies
	a.depthSum += int64(depth)
	a.MaxDepth = max(a.MaxDepth, depth)
	a.MaxLeafLen = max(a.MaxLeafLen, nBodies)
}

func (a *statsAcc) merge(o *statsAcc) {
	a.Cells += o.Cells
	a.Leaves += o.Leaves
	a.Bodies += o.Bodies
	a.depthSum += o.depthSum
	a.MaxDepth = max(a.MaxDepth, o.MaxDepth)
	a.MaxLeafLen = max(a.MaxLeafLen, o.MaxLeafLen)
}

func (a *statsAcc) stats() Stats {
	st := a.Stats
	if st.Leaves > 0 {
		st.AvgDepth = float64(a.depthSum) / float64(st.Leaves)
		st.AvgOcc = float64(st.Bodies) / float64(st.Leaves)
	}
	return st
}

// CollectStats walks the tree once and gathers Stats. A build already
// has them: the moments pass counts as it goes (ComputeMomentsFork's
// result, core.Metrics.TreeStats); this walk is for trees met outside a
// build and for checking that count.
func CollectStats(t *Tree) Stats {
	var acc statsAcc
	Walk(t, func(r Ref, depth int) bool {
		if r.IsLeaf() {
			acc.leaf(depth, len(t.Store.Leaf(r).Bodies))
		} else {
			acc.cell(depth)
		}
		return true
	})
	return acc.stats()
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("cells=%d leaves=%d bodies=%d maxDepth=%d avgDepth=%.1f avgOcc=%.2f maxLeaf=%d",
		s.Cells, s.Leaves, s.Bodies, s.MaxDepth, s.AvgDepth, s.AvgOcc, s.MaxLeafLen)
}
