// Driver for hypothesis h1-adaptive-hierarchical: on the hierarchical
// clustering scenario, does the measured-cost adaptive loop
// (internal/adapt) end with strictly lower insert-phase skew than a
// single static costzones cut?
//
// The experiment is fully deterministic: bodies come from the seeded
// generator, the per-body "true" cost is a pure function of the
// positions (local crowding — neighbors within a fixed radius), and
// the "measured" per-processor times fed to the controller's ledger are
// synthesized from that model, so reruns emit byte-identical reports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"partree/internal/adapt"
	"partree/internal/octree"
	"partree/internal/partition"
	"partree/internal/phys"
)

type cell struct {
	P              int     `json:"p"`
	StaticSkew     float64 `json:"static_skew"`
	AdaptiveSkew   float64 `json:"adaptive_skew"`
	ImprovementPct float64 `json:"improvement_pct"`
	Confirmed      bool    `json:"confirmed"`
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

// zoneSkew: max/mean of Σ true cost per zone.
func zoneSkew(assign [][]int32, truth []int64) float64 {
	var total, max int64
	for _, zone := range assign {
		var zc int64
		for _, b := range zone {
			zc += truth[b]
		}
		total += zc
		if zc > max {
			max = zc
		}
	}
	if total == 0 {
		return 1
	}
	return float64(max) / (float64(total) / float64(len(assign)))
}

// measuredInsertNs: the per-processor insert times a build under assign
// would measure if each body cost exactly its true cost.
func measuredInsertNs(assign [][]int32, truth []int64) []int64 {
	ns := make([]int64, len(assign))
	for w, zone := range assign {
		for _, b := range zone {
			ns[w] += truth[b]
		}
	}
	return ns
}

func main() {
	var (
		n      = flag.Int("n", 4000, "bodies")
		seed   = flag.Int64("seed", 7, "generator seed")
		ps     = flag.String("p", "4,8", "comma-separated processor counts")
		rounds = flag.Int("rounds", 12, "feedback rounds per cell")
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

	b := phys.Hierarchical(*n, *seed, phys.HierarchicalParams{})
	truth := densityCosts(b, *radius)
	tr := octree.BuildSerial(b.Pos, 8)
	d := octree.BodyData{Pos: b.Pos, Mass: b.Mass, Cost: b.Cost}
	octree.ComputeMomentsSerial(tr, d)

	rep := reportOut{
		Experiment: "h1-adaptive-hierarchical", Scenario: "hierarchical",
		Bodies: *n, Seed: *seed, Radius: *radius, Rounds: *rounds,
		Confirmed: true,
	}
	for _, p := range procs {
		static := partition.Costzones(tr, d, p)
		if err := partition.Validate(static, *n); err != nil {
			fmt.Fprintln(os.Stderr, "static partition invalid:", err)
			os.Exit(1)
		}
		ctrl := adapt.NewController(adapt.Options{Alpha: 0.5})
		assign := static
		for r := 0; r < *rounds; r++ {
			ctrl.Ledger().Observe(assign, measuredInsertNs(assign, truth))
			assign = ctrl.Partition(tr, d, p)
			if err := partition.Validate(assign, *n); err != nil {
				fmt.Fprintf(os.Stderr, "round %d partition invalid: %v\n", r, err)
				os.Exit(1)
			}
		}
		ss, as := zoneSkew(static, truth), zoneSkew(assign, truth)
		c := cell{
			P: p, StaticSkew: ss, AdaptiveSkew: as,
			ImprovementPct: 100 * (ss - as) / ss,
			Confirmed:      as < ss,
		}
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
