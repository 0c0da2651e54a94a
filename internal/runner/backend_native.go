package runner

import (
	"context"
	"fmt"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/nbody"
	"partree/internal/phys"
	"partree/internal/reqtrace"
	"partree/internal/verify"
)

// admit takes the spec's build slot from the engine and returns the
// pooled builder to run it on plus the slot's release. A non-nil error
// is an admission rejection.
func admit(ctx context.Context, spec Spec, eng *engine.Engine) (b core.Builder, release func(), err error) {
	s, err := eng.Acquire(ctx, engine.Key{Alg: spec.Alg, P: spec.Procs, LeafCap: spec.LeafCap})
	if err != nil {
		return nil, nil, err
	}
	return s.Builder(), s.Release, nil
}

// admissionResult renders an engine admission rejection as a failed,
// transient Result: waiters on the in-flight entry observe it, but the
// cache drops it, so the same spec retried later is admitted fresh.
func admissionResult(spec Spec, err error) Result {
	return Result{Spec: spec, Err: fmt.Sprintf("%s run %s: %v", spec.Backend, spec, err), transient: true}
}

// NewSimulation is the one Spec → nbody.Options mapping: the
// whole-application simulation a Normalized native spec names, over
// bodies, which the simulation advances in place (a caller sharing them
// clones first; nil generates them sorted, as Run does, by nbody.New).
// bld, when non-nil, is a pooled builder an engine session lends;
// otherwise the simulation constructs its own.
func NewSimulation(spec Spec, bodies *phys.Bodies, bld core.Builder) *nbody.Simulation {
	m, _ := phys.ParseModel(spec.Model)
	opts := nbody.DefaultOptions()
	opts.Model = m
	opts.N = spec.Bodies
	opts.Seed = spec.Seed
	opts.P = spec.Procs
	opts.Alg = spec.Alg
	opts.LeafCap = spec.LeafCap
	opts.Dt = spec.Dt
	opts.Force.Theta = spec.Theta
	opts.Check = spec.Check
	opts.Builder = bld
	if bodies == nil {
		return nbody.New(opts)
	}
	return nbody.NewFromBodies(opts, bodies)
}

// runNative executes the real concurrent implementation on bld, the
// pooled builder of the session the caller acquired. Steps are natural
// preemption points, so cancellation and timeouts yield a partial
// Result carrying whatever completed.
func runNative(ctx context.Context, spec Spec, bodies *phys.Bodies, bld core.Builder) Result {
	if spec.BuildOnly {
		// A build only reads the bodies, so it runs on the memoized set
		// other specs share; the whole application below integrates them
		// and takes its own copy.
		return buildOnly(ctx, spec, bodies, bld)
	}
	sim := NewSimulation(spec, bodies.Clone(), bld)

	rq, stepsStart := reqtrace.FromContext(ctx), time.Now()
	res := Result{Spec: spec, LocksPerProc: make([]int64, spec.Procs)}
	finalize := func() Result {
		rq.Since(reqtrace.Steps, stepsStart)
		res.TotalNs = res.TreeNs + res.PartNs + res.ForceNs + res.UpdateNs
		if res.TotalNs > 0 {
			res.TreeShare = res.TreeNs / res.TotalNs
		}
		return res
	}
	for i := 0; i < spec.Steps; i++ {
		if err := ctx.Err(); err != nil {
			res.Err = fmt.Sprintf("native run %s: %v after %d/%d steps", spec, err, i, spec.Steps)
			return finalize()
		}
		st := sim.Step()
		rq.AddBuild(time.Time{}, 0, st.Build)
		res.TreeNs += float64(st.TreeBuild)
		res.PartNs += float64(st.Partition)
		res.ForceNs += float64(st.Force)
		res.UpdateNs += float64(st.Update)
		res.LocksTotal += st.Build.TotalLocks()
		res.Retries += st.Build.TotalRetries()
		for w, l := range st.Build.LocksPerProc() {
			res.LocksPerProc[w] += l
		}
		res.Cells = int64(st.Build.TreeStats.Cells)
		res.Leaves = int64(st.Build.TreeStats.Leaves)
		res.MaxDepth = int64(st.Build.TreeStats.MaxDepth)
		res.Interactions += st.Phase.Interactions
		res.StepsDone = i + 1
		if st.CheckErr != nil {
			// A wrong tree makes every later step's timing meaningless;
			// stop here with what was measured.
			res.CheckFailure = st.CheckErr.Error()
			return finalize()
		}
	}
	return finalize()
}

// BuildOnly benchmarks just the tree-building phase over bodies: Steps
// repetitions of one build, reporting the best wall-clock time, the last
// repetition's tree statistics and counters, and — with Check — a
// verification of every repetition. It is the one build-repetition loop:
// Run executes build-only specs through it (on a slot it took before
// generating the bodies), and a cluster shard calls it directly on its
// owned subset, each with the even assignment (spatially compact on
// Run's Morton-sorted sets). spec must be Normalized; bodies are only
// read — no builder, verify.Build or moments pass stores to them — so
// concurrent builds may share one set. The repetitions run through a
// pooled session, so only the first-ever rep for a key pays store
// allocation; an admission rejection comes back as a Result whose Err
// satisfies engine.Rejected.
func BuildOnly(ctx context.Context, spec Spec, bodies *phys.Bodies, eng *engine.Engine) Result {
	bld, release, err := admit(ctx, spec, eng)
	if err != nil {
		return admissionResult(spec, err)
	}
	defer release()
	return buildOnly(ctx, spec, bodies, bld)
}

// buildOnly is BuildOnly's loop on an acquired session's builder.
func buildOnly(ctx context.Context, spec Spec, bodies *phys.Bodies, bld core.Builder) Result {
	assign := core.EvenAssign(bodies.N(), spec.Procs)
	in := &core.Input{Bodies: bodies, Assign: assign}
	rq := reqtrace.FromContext(ctx)
	res := Result{Spec: spec}
	best := time.Duration(1 << 62)
	for rep := 0; rep < spec.Steps; rep++ {
		if err := ctx.Err(); err != nil {
			res.Err = fmt.Sprintf("native build %s: %v after %d/%d reps", spec, err, rep, spec.Steps)
			return res
		}
		in.Step = rep
		start := time.Now()
		tree, metrics := bld.Build(in)
		el := time.Since(start)
		if el < best {
			best = el
		}
		// One build stamp per repetition; the totals accumulate across
		// reps (total build work this request did).
		rq.AddBuild(start, el, metrics)
		if spec.Check {
			if err := verify.Build(spec.Alg, tree, metrics, in.Bodies, rep); err != nil {
				res.CheckFailure = err.Error()
				res.StepsDone = rep + 1
				return res
			}
		}
		st := metrics.TreeStats
		res.Cells = int64(st.Cells)
		res.Leaves = int64(st.Leaves)
		res.MaxDepth = int64(st.MaxDepth)
		res.LocksTotal = metrics.TotalLocks()
		res.LocksPerProc = metrics.LocksPerProc()
		res.Retries = metrics.TotalRetries()
		res.BodiesBuilt = metrics.TotalBodiesBuilt()
		res.StepsDone = rep + 1
	}
	res.TreeNs = float64(best)
	res.TotalNs = res.TreeNs
	res.TreeShare = 1
	return res
}
