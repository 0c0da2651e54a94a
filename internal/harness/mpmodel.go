package harness

import (
	"fmt"
	"slices"
	"sync"

	"partree/internal/core"
	"partree/internal/force"
	"partree/internal/memsim"
	"partree/internal/mp"
	"partree/internal/phys"
	"partree/internal/runner"
	"partree/internal/simalg"
)

// mpCosts is the first-order communication model for the message-passing
// baseline on each platform: per-message latency and per-byte transfer
// cost. The SVM-class machines use their measured message parameters; the
// hardware shared-memory machines run message passing through shared
// buffers, so latency is a few memory round trips and bandwidth is the
// interconnect's.
func mpCosts(pl memsim.Platform) (latencyNs, nsPerByte float64) {
	switch pl.Kind {
	case memsim.HLRC:
		return pl.MsgNs, pl.PageXferNs / 4096
	case memsim.FineGrainSC:
		return pl.RemoteMissNs, pl.RemoteMissNs / float64(pl.LineSize)
	case memsim.Directory:
		return 3 * pl.RemoteMissNs, pl.RemoteMissNs / float64(pl.LineSize)
	default: // SnoopyBus
		return 3 * pl.LocalMissNs, pl.LocalMissNs / float64(pl.LineSize)
	}
}

// measureMP takes X3's one native measurement: the message-passing step
// of the session's Plummer bodies on p ranks — per-rank work and traffic
// counts. The distribution settles for one step and the second is
// measured, mirroring the shared-memory methodology. It runs at the
// cells' k, seed, θ and Δt, read off a normalized cell spec.
func (s *Session) measureMP(p, n int) mp.StepStats {
	sp := s.run("", core.LOCAL, p, n).Normalized()
	bodies := s.r.Bodies(phys.ModelPlummer, n, sp.Seed).Clone()
	fp := force.DefaultParams()
	fp.Theta = sp.Theta
	opts := mp.Options{P: p, LeafCap: sp.LeafCap, Force: fp, Dt: sp.Dt}
	s.mpStep(bodies, opts)
	return s.mpStep(bodies, opts)
}

// mpEstimate prices a measured message-passing step on the platform:
// per-rank time = compute + communication, total = slowest rank + barrier
// costs, over steps time steps. This is a first-order model (no
// contention), which is exactly the regime message passing was prized
// for — predictable, latency-bound communication.
func mpEstimate(st mp.StepStats, pl memsim.Platform, steps int) float64 {
	lat, perByte := mpCosts(pl)
	const (
		treeCyclesPerBody = 250 // local build + essential-set walks
		orbCyclesPerBody  = 60
	)
	var worst float64
	for _, r := range st.PerRank {
		compute := (float64(r.Interactions)*simalg.InteractionCycles +
			float64(r.Bodies)*(treeCyclesPerBody+orbCyclesPerBody) +
			float64(r.RemoteItems)*treeCyclesPerBody) * pl.CycleNs
		comm := float64(r.MsgsSent)*lat + float64(r.BytesSent)*perByte
		if t := compute + comm; t > worst {
			worst = t
		}
	}
	// Three phase barriers per step, using the platform's barrier cost.
	worst += 3 * (pl.BarrierBase + pl.BarrierPerP*float64(len(st.PerRank)))
	return worst * float64(steps)
}

func ext3(s *Session) []Table {
	n, p := s.Opts.MaxSize(), 16
	platforms := []string{"challenge", "origin", "typhoon-sc", "typhoon-hlrc", "paragon"}
	times := func(c Cell) Cell { // a speedup printed as "8.5x"
		return Cell{c.Specs, func(rs []runner.Result) any { return fmt.Sprintf("%.1fx", c.Value(rs)) }}
	}
	t := table(fmt.Sprintf("Message passing (ORB + locally essential trees) vs shared address space,\n"+
		"%s bodies, %d processors. MP times are first-order estimates from the\n"+
		"native run's measured work and traffic; SAS times are full simulations.\n\n", sizeLabel(n), p),
		"platform", platforms, displayName, []core.Algorithm{core.LOCAL, core.SPACE},
		func(alg core.Algorithm) string { return alg.String() + " (SAS)" },
		func(platform string, alg core.Algorithm) Cell { return times(s.speedup(platform, alg, p, n)) })
	// The estimate's column is computed: mp.Step is native code, not a
	// spec. It is measured once, when the first row renders, and each
	// platform's cell prices that one measurement.
	measured := sync.OnceValue(func() mp.StepStats { return s.measureMP(p, n) })
	t.Header = slices.Insert(t.Header, 1, "MP est.")
	for i, platform := range platforms {
		pl, _ := runner.ParsePlatform(platform, p)
		t.Rows[i].Cells = slices.Insert(t.Rows[i].Cells, 0, times(Cell{[]runner.Spec{s.seq(platform, n)},
			func(rs []runner.Result) any { return rs[0].TotalNs / mpEstimate(measured(), pl, s.Opts.MeasuredSteps) }}))
	}
	t.Note = "\nMessage passing's speedups stay healthy on every platform — the\n" +
		"portability the paper set out to match. SPACE is the tree-building\n" +
		"algorithm that lets the shared-address-space model keep pace.\n"
	return []Table{t}
}
