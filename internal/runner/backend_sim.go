package runner

import (
	"context"
	"fmt"
	"sync/atomic"

	"partree/internal/phys"
	"partree/internal/simalg"
	"partree/internal/verify"
)

// runSimulated replays the whole application on the platform model,
// holding the engine slot the caller took; release gives it back and
// runSimulated owns it. simalg.Run has no internal preemption points, so
// cancellation is implemented by racing the run against the context: on
// timeout the caller gets a partial Result immediately and the abandoned
// run is left to finish on its goroutine (it only touches its own clone
// of bodies) — still holding its engine slot, which the goroutine gives
// back when the replay returns: an abandoned replay is a busy core, so
// MaxActive keeps bounding CPU and Engine.Drain waits it out. returned
// counts the replays that ran to their end, abandoned ones included.
func runSimulated(ctx context.Context, spec Spec, bodies *phys.Bodies, release func(), returned *atomic.Int64) Result {
	pl, err := ParsePlatform(spec.Platform, spec.Procs)
	if err != nil {
		release()
		return Result{Err: err.Error()}
	}
	cfg := simalg.Config{
		Platform:      pl,
		P:             spec.Procs,
		LeafCap:       spec.LeafCap,
		Theta:         spec.Theta,
		Dt:            spec.Dt,
		MeasuredSteps: spec.Steps,
		Sequential:    spec.Sequential,
	}
	if spec.Check && !spec.Sequential {
		// The replay's tree lives inside the platform model, so run the
		// native companion check of the same algorithm and workload. A
		// wrong algorithm makes the replayed timing meaningless, so skip
		// the replay on failure.
		if cerr := verify.Algorithm(spec.Alg, bodies, spec.Procs, spec.LeafCap); cerr != nil {
			release()
			return Result{CheckFailure: cerr.Error()}
		}
	}
	ch := make(chan simalg.Outcome, 1)
	go func() {
		o := simalg.Run(spec.Alg, bodies, cfg)
		returned.Add(1)
		release() // before the result is visible, so a caller that has it finds the slot free
		ch <- o
	}()
	select {
	case o := <-ch:
		return resultFromOutcome(spec, o)
	case <-ctx.Done():
		return Result{Err: fmt.Sprintf("simulated run %s: %v", spec, ctx.Err())}
	}
}
