// Package runner is the single spec→result execution layer shared by the
// experiment harness and every cmd/ binary. A Spec names one cell of the
// paper's evaluation grid (backend × platform × algorithm × processors ×
// bodies × tuning); a Runner executes specs through either the native
// (real goroutines, wall clock) or the simulated (memsim platform model)
// backend — each behind the engine's admission gate, which bounds
// parallelism — memoizes outcomes in a concurrency-safe cache, and honors
// context cancellation and per-spec timeouts. A given Spec always maps to the same Result
// regardless of how runs are scheduled, so concurrent sweeps stay
// deterministic.
package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"partree/internal/core"
	"partree/internal/memsim"
	"partree/internal/octree"
	"partree/internal/phys"
)

// Backend selects the execution engine for a spec.
type Backend string

const (
	// Native runs the real concurrent Go implementation and measures
	// wall-clock time on this machine.
	Native Backend = "native"
	// Simulated replays the application on a memsim platform model and
	// measures simulated time.
	Simulated Backend = "simulated"
)

// Spec is one cell of the evaluation grid. The zero value of every
// optional field selects the documented default, so specs parsed from
// flags or JSON stay terse. Timeout bounds the execution; it is part of
// the spec's identity, so re-running with a longer timeout re-executes.
type Spec struct {
	Backend Backend `json:"backend"`
	// Platform names the simulated machine model (Simulated backend
	// only): challenge, origin, paragon, typhoon-hlrc, typhoon-sc.
	Platform string         `json:"platform,omitempty"`
	Alg      core.Algorithm `json:"algorithm"`
	Procs    int            `json:"procs"`
	Bodies   int            `json:"bodies"`
	LeafCap  int            `json:"leaf_cap"`
	Theta    float64        `json:"theta"`
	Dt       float64        `json:"dt"`
	// Steps is measured time steps, or repetitions when BuildOnly is set.
	Steps int   `json:"steps"`
	Seed  int64 `json:"seed"`
	// Model is the native backend's mass model — any phys scenario
	// model (plummer, uniform, twoclusters, disk, hierarchical). The
	// simulated harness always uses plummer.
	Model string `json:"model,omitempty"`
	// Sequential runs the lock-free single-processor baseline (the
	// paper's speedup denominator). Forces Procs = 1.
	Sequential bool `json:"sequential,omitempty"`
	// BuildOnly benchmarks just the tree-building phase natively,
	// best-of-Steps repetitions (`partree treebench`).
	BuildOnly bool `json:"build_only,omitempty"`
	// Spatial uses a Morton-ordered body assignment for BuildOnly runs,
	// standing in for a settled costzones partition.
	Spatial bool `json:"spatial,omitempty"`
	// Check verifies every tree built during the run against the serial
	// reference (internal/verify) and audits the metrics conservation
	// laws; a violation is recorded in Result.CheckFailure. Simulated
	// specs run a native companion check of the same algorithm and
	// workload, since the platform replay's tree is internal to it.
	Check   bool          `json:"check,omitempty"`
	Timeout time.Duration `json:"timeout_ns,omitempty"`
}

func (s Spec) withDefaults() Spec {
	if s.Backend == "" {
		s.Backend = Simulated
	}
	if s.Sequential {
		s.Procs = 1
	}
	if s.Procs <= 0 {
		s.Procs = 1
	}
	if s.Bodies <= 0 {
		s.Bodies = 4096
	}
	if s.LeafCap <= 0 {
		s.LeafCap = 8
	}
	if s.Theta == 0 {
		s.Theta = 1.0
	}
	if s.Dt == 0 {
		s.Dt = 0.025
	}
	if s.Steps <= 0 {
		s.Steps = 2
	}
	if s.Seed == 0 {
		s.Seed = 1998
	}
	if s.Model == "" {
		s.Model = phys.ModelPlummer.String()
	}
	if s.Backend == Simulated && s.Platform == "" {
		s.Platform = "origin"
	}
	return s
}

// Normalized returns the spec with every documented default filled in —
// the form Run executes and caches. Validate a spec in this form;
// cmd/partreed normalizes request specs before vetting them.
func (s Spec) Normalized() Spec { return s.withDefaults() }

// Limits on what a remote caller may ask a service to execute. A spec
// arrives from a socket, and the sizes that drive allocation and run
// time are bounded here, before the spec reaches the engine, at the one
// vetting function every service endpoint passes through (the streaming
// session applies the same body, processor and leaf-capacity bounds to
// its open record).
const (
	// MaxServiceBodies bounds bodies: 4 Mi bodies is ≈ 370 MB of state.
	MaxServiceBodies = 4 << 20
	// MaxServiceProcsPerCPU bounds procs at this multiple of GOMAXPROCS:
	// native processors are real goroutines with their own stores.
	MaxServiceProcsPerCPU = 4
	// MaxServiceSteps bounds measured steps (or build repetitions).
	MaxServiceSteps = 1000
	// MaxServiceLeafCap bounds leaf_cap: every leaf is allocated with
	// room for that many body indices.
	MaxServiceLeafCap = 4096
)

// VetServiceSpec vets a spec received from a remote caller for execution
// by a service. Services run native builds only: an empty backend means
// native, and any other is refused rather than answered for a spec the
// caller did not send. The result is Normalized, held to the service
// limits and validated.
func VetServiceSpec(spec Spec) (Spec, error) {
	switch spec.Backend {
	case "":
		spec.Backend = Native
	case Native:
	default:
		return spec, fmt.Errorf("backend %q: services run %s specs only", spec.Backend, Native)
	}
	spec = spec.Normalized()
	maxProcs := MaxServiceProcsPerCPU * runtime.GOMAXPROCS(0)
	switch {
	case spec.Bodies > MaxServiceBodies:
		return spec, fmt.Errorf("bodies %d exceeds the service limit %d", spec.Bodies, MaxServiceBodies)
	case spec.Procs > maxProcs:
		return spec, fmt.Errorf("procs %d exceeds the service limit %d (%dx GOMAXPROCS)", spec.Procs, maxProcs, MaxServiceProcsPerCPU)
	case spec.Steps > MaxServiceSteps:
		return spec, fmt.Errorf("steps %d exceeds the service limit %d", spec.Steps, MaxServiceSteps)
	case spec.LeafCap > MaxServiceLeafCap:
		return spec, fmt.Errorf("leaf_cap %d exceeds the service limit %d", spec.LeafCap, MaxServiceLeafCap)
	}
	return spec, spec.Validate()
}

// DecodeServiceSpec reads one spec, which must be the whole of r (bar
// trailing whitespace), and vets it (VetServiceSpec). A field the spec
// does not declare (a misspelt "bodeis") and a second document after the
// first are refused, not ignored: the client would otherwise be answered
// for a spec it did not send.
func DecodeServiceSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("parsing spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("parsing spec: trailing data after the spec document")
	}
	return VetServiceSpec(spec)
}

// Validate reports whether the spec names a runnable cell.
func (s Spec) Validate() error {
	switch s.Backend {
	case Native, Simulated:
	default:
		return fmt.Errorf("runner: unknown backend %q (valid: %s, %s)", s.Backend, Native, Simulated)
	}
	if s.Backend == Simulated {
		if _, err := ParsePlatform(s.Platform, s.Procs); err != nil {
			return err
		}
		if s.BuildOnly {
			return fmt.Errorf("runner: build-only specs require the native backend")
		}
	}
	if _, ok := phys.ParseModel(s.Model); !ok {
		return fmt.Errorf("runner: unknown mass model %q (valid: %s)",
			s.Model, strings.Join(phys.ModelNames(), ", "))
	}
	if int(s.Alg) < 0 || int(s.Alg) >= core.NumAlgorithms {
		return fmt.Errorf("runner: unknown algorithm %d", int(s.Alg))
	}
	if s.Procs > octree.MaxArenas {
		return fmt.Errorf("runner: procs %d exceeds the builders' limit %d (one node arena per processor)", s.Procs, octree.MaxArenas)
	}
	return nil
}

// Key is the spec's canonical cache identity: two specs with equal keys
// produce interchangeable results.
func (s Spec) Key() string {
	s = s.withDefaults()
	return fmt.Sprintf("%s|%s|%s|p%d|n%d|k%d|th%g|dt%g|s%d|seed%d|%s|seq%t|build%t|spat%t|chk%t|to%d",
		s.Backend, s.Platform, s.Alg, s.Procs, s.Bodies, s.LeafCap, s.Theta, s.Dt,
		s.Steps, s.Seed, s.Model, s.Sequential, s.BuildOnly, s.Spatial, s.Check, int64(s.Timeout))
}

// String renders the spec compactly for logs and labels.
func (s Spec) String() string {
	s = s.withDefaults()
	where := string(s.Backend)
	if s.Backend == Simulated {
		where = s.Platform
	}
	alg := s.Alg.String()
	if s.Sequential {
		alg = "SEQUENTIAL"
	}
	return fmt.Sprintf("%s/%s p=%d n=%d", where, alg, s.Procs, s.Bodies)
}

// platformDefs maps CLI platform names to their constructors. Origin is
// the only preset whose topology depends on the processor count.
var platformDefs = []struct {
	name string
	make func(p int) memsim.Platform
}{
	{"challenge", func(int) memsim.Platform { return memsim.Challenge() }},
	{"origin", memsim.Origin2000},
	{"paragon", func(int) memsim.Platform { return memsim.Paragon() }},
	{"typhoon-hlrc", func(int) memsim.Platform { return memsim.TyphoonHLRC() }},
	{"typhoon-sc", func(int) memsim.Platform { return memsim.TyphoonSC() }},
}

// PlatformNames lists the valid -platform values.
func PlatformNames() []string {
	out := make([]string, len(platformDefs))
	for i, d := range platformDefs {
		out[i] = d.name
	}
	return out
}

// CanonicalPlatform maps either a CLI name or a memsim display name
// (e.g. "Origin2000", "Typhoon-0/HLRC") to the canonical CLI name.
func CanonicalPlatform(name string) (string, bool) {
	for _, d := range platformDefs {
		if strings.EqualFold(name, d.name) || strings.EqualFold(name, d.make(1).Name) {
			return d.name, true
		}
	}
	return "", false
}

// ParsePlatform resolves a platform name (case-insensitive, CLI or
// display form) into the machine model sized for p processors.
func ParsePlatform(name string, p int) (memsim.Platform, error) {
	if canon, ok := CanonicalPlatform(name); ok {
		for _, d := range platformDefs {
			if d.name == canon {
				return d.make(p), nil
			}
		}
	}
	return memsim.Platform{}, fmt.Errorf("runner: unknown platform %q (valid: %s)",
		name, strings.Join(PlatformNames(), ", "))
}
