package runner

import (
	"flag"
	"strings"

	"partree/internal/core"
	"partree/internal/phys"
)

// BindFlags registers the shared CLI surface — one flag per Spec
// field — on fs, each bound straight to the field of *spec it sets, with
// spec's own (Normalized) values as the defaults, so every subcommand
// parses specs identically. -platform exists for the simulated backend
// only, -model for the native one; names listed in omit are left for the
// caller to define itself (e.g. treebench's sweep-valued -p). After
// fs.Parse, normalize and Validate *spec.
func BindFlags(fs *flag.FlagSet, spec *Spec, omit ...string) {
	*spec = spec.withDefaults()
	omitted := map[string]bool{
		"platform": spec.Backend != Simulated,
		"model":    spec.Backend != Native,
	}
	for _, name := range omit {
		omitted[name] = true
	}
	var all flag.FlagSet
	all.TextVar(&spec.Alg, "alg", spec.Alg, "tree builder: "+strings.Join(core.AlgorithmNames(), ", "))
	all.StringVar(&spec.Platform, "platform", spec.Platform, "platform model: "+strings.Join(PlatformNames(), ", "))
	all.StringVar(&spec.Model, "model", spec.Model, "mass model: "+strings.Join(phys.ModelNames(), ", "))
	all.IntVar(&spec.Bodies, "n", spec.Bodies, "number of bodies")
	all.IntVar(&spec.Procs, "p", spec.Procs, "processors")
	all.IntVar(&spec.Steps, "steps", spec.Steps, "measured time steps")
	all.IntVar(&spec.LeafCap, "leafcap", spec.LeafCap, "bodies per leaf (k)")
	all.Float64Var(&spec.Theta, "theta", spec.Theta, "Barnes-Hut opening angle")
	all.Float64Var(&spec.Dt, "dt", spec.Dt, "time step")
	all.Int64Var(&spec.Seed, "seed", spec.Seed, "random seed")
	all.DurationVar(&spec.Timeout, "timeout", spec.Timeout, "per-spec timeout (0 = none)")
	all.BoolVar(&spec.Check, "check", spec.Check,
		"verify every built tree against the serial reference and audit metrics invariants")
	all.VisitAll(func(f *flag.Flag) {
		if !omitted[f.Name] {
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
}
