// Driver for hypothesis h1-adaptive-hierarchical: on the hierarchical
// clustering scenario, do measured-time cut moves (the boundary
// controller of an adaptive core.Stepper, partition.MoveCuts) bring the
// insert-phase max/mean skew to ≤ 1.10 within 10 rounds, where the static
// cost cut sits at ≥ 1.25?
//
// The experiment is fully deterministic: bodies come from the seeded
// generator and are held in Morton order as a session holds them, the
// per-body "true" cost is a pure function of the positions (local
// crowding — neighbors within a fixed radius), and the "measured"
// per-processor times fed to the cut move are synthesized from that
// model, so reruns emit byte-identical reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"partree/internal/partition"
	"partree/internal/phys"
	"partree/internal/stats"
)

// The verdict's bounds: where the cut moves must land, and where the
// static cut must sit for the scenario to be stressing the partition.
const (
	movedBound  = 1.10
	staticBound = 1.25
)

type cell struct {
	P              int     `json:"p"`
	StaticSkew     float64 `json:"static_skew"`
	AdaptiveSkew   float64 `json:"adaptive_skew"`
	ImprovementPct float64 `json:"improvement_pct"`
	// RoundsToBound is the first round whose cuts are within movedBound
	// (0: never).
	RoundsToBound int  `json:"rounds_to_bound"`
	Confirmed     bool `json:"confirmed"`
}

type reportOut struct {
	Experiment string  `json:"experiment"`
	Scenario   string  `json:"scenario"`
	Bodies     int     `json:"bodies"`
	Seed       int64   `json:"seed"`
	Radius     float64 `json:"radius"`
	Rounds     int     `json:"rounds"`
	Cells      []cell  `json:"cells"`
	Confirmed  bool    `json:"confirmed"`
}

// densityCosts: per-body cost proportional to local crowding, the
// regime hierarchical clustering creates (many separated dense knots).
// O(n²) but deterministic — no sampling, no timers.
func densityCosts(b *phys.Bodies, radius float64) []int64 {
	out := make([]int64, b.N())
	r2 := radius * radius
	for i := range out {
		n := int64(0)
		for j := 0; j < b.N(); j++ {
			if b.Pos[i].Dist2(b.Pos[j]) < r2 {
				n++
			}
		}
		out[i] = n
	}
	return out
}

// zoneSkew: max/mean of Σ true cost over the zones between the cuts.
func zoneSkew(cut []int, truth []int64) float64 {
	s := stats.Summarize(measuredInsertNs(cut, truth))
	return s.Max / s.Mean
}

// measuredInsertNs: the per-processor insert times a build under the cuts
// would measure if each body cost exactly its true cost.
func measuredInsertNs(cut []int, truth []int64) []int64 {
	ns := make([]int64, len(cut)-1)
	for w := range ns {
		for _, c := range truth[cut[w]:cut[w+1]] {
			ns[w] += c
		}
	}
	return ns
}

func main() {
	var (
		n      = flag.Int("n", 4000, "bodies")
		seed   = flag.Int64("seed", 7, "generator seed")
		ps     = flag.String("p", "4,8", "comma-separated processor counts")
		rounds = flag.Int("rounds", 10, "cut-move rounds per cell")
		radius = flag.Float64("radius", 0.2, "crowding radius for the true-cost model")
		out    = flag.String("report", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()

	var procs []int
	for _, f := range strings.Split(*ps, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			fmt.Fprintf(os.Stderr, "bad -p entry %q\n", f)
			os.Exit(2)
		}
		procs = append(procs, p)
	}

	// Morton-resident, as core.Stepper keeps a session's bodies (the
	// margin is the builders' root margin).
	b := phys.Generate(phys.ModelHierarchical, *n, *seed)
	b.Permute(partition.Order(b.Pos, b.Bounds(1e-4)))
	truth := densityCosts(b, *radius)

	rep := reportOut{
		Experiment: "h1-adaptive-hierarchical", Scenario: "hierarchical",
		Bodies: *n, Seed: *seed, Radius: *radius, Rounds: *rounds,
		Confirmed: true,
	}
	for _, p := range procs {
		// Static: the cost cut over the modeled costs (uniform 1s from
		// the generator) — an even-count split, blind to the truth.
		cut, next := make([]int, p+1), make([]int, p+1)
		partition.CostRanges(b.Cost, cut)
		ss := zoneSkew(cut, truth)
		c := cell{P: p, StaticSkew: ss}
		for r := 1; r <= *rounds; r++ {
			partition.MoveCuts(next, cut, measuredInsertNs(cut, truth))
			cut, next = next, cut
			if c.RoundsToBound == 0 && zoneSkew(cut, truth) <= movedBound {
				c.RoundsToBound = r
			}
		}
		as := zoneSkew(cut, truth)
		c.AdaptiveSkew, c.ImprovementPct = as, 100*(ss-as)/ss
		c.Confirmed = as <= movedBound && ss >= staticBound
		if !c.Confirmed {
			rep.Confirmed = false
		}
		rep.Cells = append(rep.Cells, c)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
