package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"partree/internal/core"
	"partree/internal/engine"
	"partree/internal/memsim"
	"partree/internal/phys"
	"partree/internal/simalg"
)

func simSpec(alg core.Algorithm, p, n int) Spec {
	return Spec{Backend: Simulated, Platform: "challenge", Alg: alg, Procs: p, Bodies: n, Steps: 1, Seed: 7}
}

func TestSimulatedMatchesDirectRun(t *testing.T) {
	spec := simSpec(core.SPACE, 4, 512)
	res := New(0).Run(context.Background(), spec)
	if res.Failed() {
		t.Fatalf("run failed: %s", res.Err)
	}
	direct := simalg.Run(core.SPACE, phys.Generate(phys.ModelPlummer, 512, 7), simalg.Config{
		Platform: memsim.Challenge(), P: 4, LeafCap: 8, Theta: 1, Dt: 0.025, MeasuredSteps: 1,
	})
	if res.TotalNs != direct.TotalNs() {
		t.Fatalf("runner %v != direct %v", res.TotalNs, direct.TotalNs())
	}
	if res.LocksTotal != direct.TotalLocks() || res.BarrierNsMean != direct.MeanBarrierNs() || *res.Protocol != direct.Protocol {
		t.Fatalf("outcome mismatch: %+v vs %v", res, direct)
	}
	if res.WallNs <= 0 || res.StepsDone != 1 {
		t.Fatalf("bookkeeping wrong: wall=%d steps=%d", res.WallNs, res.StepsDone)
	}
}

func TestMemoizesAndSharesExecution(t *testing.T) {
	r := New(2)
	spec := simSpec(core.LOCAL, 2, 256)
	const callers = 16
	results := make([]Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.Run(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.Failed() {
			t.Fatalf("caller %d failed: %s", i, res.Err)
		}
		if res.TotalNs != results[0].TotalNs {
			t.Fatalf("caller %d saw a different result", i)
		}
	}
	if got := len(r.Results()); got != 1 {
		t.Fatalf("want one cached execution, got %d", got)
	}
}

func TestRunAllKeepsSpecOrder(t *testing.T) {
	r := New(0)
	var specs []Spec
	for _, alg := range core.Algorithms() {
		specs = append(specs, simSpec(alg, 2, 256))
	}
	results := r.RunAll(context.Background(), specs)
	if len(results) != len(specs) {
		t.Fatalf("want %d results, got %d", len(specs), len(results))
	}
	for i, res := range results {
		if res.Failed() {
			t.Fatalf("%v failed: %s", specs[i], res.Err)
		}
		if res.Spec.Alg != specs[i].Alg {
			t.Fatalf("result %d is for %v, want %v", i, res.Spec.Alg, specs[i].Alg)
		}
	}
	// Deterministic: a fresh runner reproduces the same numbers.
	again := New(1).RunAll(context.Background(), specs)
	for i := range results {
		if results[i].TotalNs != again[i].TotalNs || results[i].LocksTotal != again[i].LocksTotal {
			t.Fatalf("nondeterministic result for %v", specs[i])
		}
	}
}

// TestRunAllNeverShedsItsOwnCells runs a sweep eight times wider than
// the engine's build slots, wider than the slots and their 4×MaxActive
// waiting room together: a harness sweep fans out exactly MaxActive wide
// behind the one admission gate, so every cell must come back built —
// none shed with "queue full" by a queue the sweep itself would have
// filled.
func TestRunAllNeverShedsItsOwnCells(t *testing.T) {
	eng := engine.New(engine.Options{MaxActive: 2})
	r := NewWithConfig(Config{Engine: eng})
	specs := make([]Spec, 8*eng.Options().MaxActive)
	for i := range specs {
		// Distinct sizes: no memo collapse, every cell really builds.
		specs[i] = Spec{Backend: Native, Alg: core.LOCAL, BuildOnly: true, Procs: 1, Bodies: 1000 + 16*i, Steps: 2}
	}
	for i, res := range r.RunAll(context.Background(), specs) {
		if res.Failed() || res.Spec.Bodies != specs[i].Bodies {
			t.Fatalf("cell %d (n=%d): result for n=%d, %s", i, specs[i].Bodies, res.Spec.Bodies, res.FailureMessage())
		}
	}
}

func TestCancelledContextReturnsError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := New(0).Run(ctx, simSpec(core.ORIG, 4, 2048))
	if !res.Failed() || !strings.Contains(res.Err, "context canceled") {
		t.Fatalf("want cancellation error, got %+v", res)
	}
}

func TestTimeoutYieldsPartialNativeResult(t *testing.T) {
	spec := Spec{Backend: Native, Alg: core.SPACE, Procs: 2, Bodies: 1024, Steps: 8, Seed: 3, Timeout: time.Nanosecond}
	res := New(0).Run(context.Background(), spec)
	if !res.Failed() {
		t.Fatal("want timeout error")
	}
	if !strings.Contains(res.Err, "deadline") {
		t.Fatalf("error %q does not mention the deadline", res.Err)
	}
	if res.StepsDone >= spec.Steps {
		t.Fatalf("partial result claims %d/%d steps", res.StepsDone, spec.Steps)
	}
}

// TestTimeoutSimulated: a replay that outlives its timeout answers the
// error at once and is abandoned on its goroutine — still burning a core,
// so still holding its engine slot. With MaxActive 1, Drain (which seizes
// every slot) therefore returns only once the abandoned replay has.
func TestTimeoutSimulated(t *testing.T) {
	r := New(1)
	spec := simSpec(core.LOCAL, 4, 4096)
	spec.Timeout = time.Nanosecond
	res := r.Run(context.Background(), spec)
	if !res.Failed() || !strings.Contains(res.Err, "deadline exceeded") {
		t.Fatalf("want a timeout error, got %+v", res)
	}
	if err := r.Engine().Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := r.obs.replaysReturned.Load(); got != 1 {
		t.Fatalf("the engine drained with %d replays returned: the abandoned one was still running", got)
	}
}

func TestNativeWholeApp(t *testing.T) {
	spec := Spec{Backend: Native, Alg: core.LOCAL, Procs: 2, Bodies: 512, Steps: 2, Seed: 3}
	res := New(0).Run(context.Background(), spec)
	if res.Failed() {
		t.Fatalf("native run failed: %s", res.Err)
	}
	if res.TotalNs <= 0 || res.StepsDone != 2 || res.Cells == 0 || res.Interactions == 0 {
		t.Fatalf("implausible native result: %+v", res)
	}
}

func TestBuildOnly(t *testing.T) {
	r := New(1)
	mk := func(alg core.Algorithm) Spec {
		return Spec{Backend: Native, Alg: alg, Procs: 4, Bodies: 2048, Steps: 2, Seed: 3, BuildOnly: true}
	}
	local := r.Run(context.Background(), mk(core.LOCAL))
	space := r.Run(context.Background(), mk(core.SPACE))
	if local.Failed() || space.Failed() {
		t.Fatalf("build-only runs failed: %q %q", local.Err, space.Err)
	}
	if local.LocksTotal == 0 {
		t.Fatal("LOCAL build should take locks")
	}
	if space.LocksTotal != 0 {
		t.Fatalf("SPACE build took %d locks", space.LocksTotal)
	}
	if space.Cells == 0 || space.Leaves == 0 || space.TreeNs <= 0 {
		t.Fatalf("implausible build-only result: %+v", space)
	}
}

// TestBuildOnlyLeavesBodiesUntouched pins what lets Run hand BuildOnly
// the memoized body set uncopied: a build — SpatialAssign, any of the
// five builders (the second repetition is UPDATE's repair path), the
// moments pass and verify.Build — only reads phys.Bodies. Two builds
// share each set at once, so under -race a stray store is a reported
// race as well as a changed hash.
func TestBuildOnlyLeavesBodiesUntouched(t *testing.T) {
	hash := func(b *phys.Bodies) [sha256.Size]byte {
		h := sha256.New()
		for _, field := range []any{b.Pos, b.Vel, b.Acc, b.Mass, b.Cost} {
			if err := binary.Write(h, binary.LittleEndian, field); err != nil {
				t.Fatal(err)
			}
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	eng := engine.New(engine.Options{})
	for _, alg := range core.Algorithms() {
		for _, p := range []int{1, 2} {
			bodies := phys.Generate(phys.ModelPlummer, 3000, 5)
			before := hash(bodies)
			spec := Spec{Backend: Native, Alg: alg, Procs: p, Bodies: bodies.N(), Steps: 2,
				BuildOnly: true, Check: true}.Normalized()
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if res := BuildOnly(context.Background(), spec, bodies, eng); res.Failed() {
						t.Errorf("%s p=%d: %s%s", alg, p, res.Err, res.CheckFailure)
					}
				}()
			}
			wg.Wait()
			if hash(bodies) != before {
				t.Errorf("%s p=%d: the build wrote to the body set", alg, p)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	res := New(0).Run(context.Background(), Spec{Backend: Simulated, Platform: "cray"})
	if !res.Failed() {
		t.Fatal("bogus platform accepted")
	}
	for _, name := range PlatformNames() {
		if !strings.Contains(res.Err, name) {
			t.Fatalf("error %q does not list platform %s", res.Err, name)
		}
	}
	res = New(0).Run(context.Background(), Spec{Backend: Simulated, Platform: "origin", BuildOnly: true})
	if !res.Failed() {
		t.Fatal("simulated build-only accepted")
	}
	res = New(0).Run(context.Background(), Spec{Backend: "quantum"})
	if !res.Failed() {
		t.Fatal("bogus backend accepted")
	}
	// One node arena per processor: 64 is the most a Store addresses, and
	// a 65th used to panic inside the build instead of failing the spec.
	for _, backend := range []Backend{Native, Simulated} {
		spec := Spec{Backend: backend, Procs: 64}.Normalized()
		if err := spec.Validate(); err != nil {
			t.Errorf("%s, 64 processors: %v", backend, err)
		}
		spec.Procs = 65
		if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "limit 64") {
			t.Errorf("%s, 65 processors: error %v, want a refusal naming the limit 64", backend, err)
		}
	}
}

func TestParsePlatformForms(t *testing.T) {
	for _, name := range []string{"origin", "ORIGIN", "Origin2000"} {
		pl, err := ParsePlatform(name, 8)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if pl.Name != "Origin2000" {
			t.Fatalf("%q resolved to %s", name, pl.Name)
		}
	}
	if _, err := ParsePlatform("typhoon-hlrc", 16); err != nil {
		t.Fatal(err)
	}
	if canon, ok := CanonicalPlatform("Typhoon-0/HLRC"); !ok || canon != "typhoon-hlrc" {
		t.Fatalf("display-name canonicalization broken: %q %v", canon, ok)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	res := New(0).Run(context.Background(), simSpec(core.PARTREE, 2, 256))
	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, `"algorithm":"PARTREE"`) {
		t.Fatalf("algorithm not serialized by name: %s", line)
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Spec.Alg != core.PARTREE || back.TotalNs != res.TotalNs || back.LocksTotal != res.LocksTotal {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, res)
	}
}

func TestKeyDistinguishesSpecs(t *testing.T) {
	base := simSpec(core.LOCAL, 2, 256)
	variants := []func(Spec) Spec{
		func(s Spec) Spec { s.Alg = core.SPACE; return s },
		func(s Spec) Spec { s.Procs = 4; return s },
		func(s Spec) Spec { s.Bodies = 512; return s },
		func(s Spec) Spec { s.Sequential = true; s.Procs = 1; return s },
		func(s Spec) Spec { s.Platform = "origin"; return s },
		func(s Spec) Spec { s.Backend = Native; s.Platform = ""; return s },
		func(s Spec) Spec { s.LeafCap = 16; return s },
		func(s Spec) Spec { s.Seed = 8; return s },
		func(s Spec) Spec { s.Timeout = time.Second; return s },
		func(s Spec) Spec { s.Check = true; return s },
	}
	seen := map[string]bool{base.Key(): true}
	for i, v := range variants {
		k := v(base).Key()
		if seen[k] {
			t.Fatalf("variant %d collides: %s", i, k)
		}
		seen[k] = true
	}
	// Spatial selects nothing, so it names no other result.
	spatial := base
	spatial.Spatial = true
	if spatial.Key() != base.Key() {
		t.Fatalf("Spatial changes the key: %s vs %s", spatial.Key(), base.Key())
	}
}
