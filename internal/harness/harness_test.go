package harness

import (
	"bytes"
	"strings"
	"testing"

	"partree/internal/core"
	"partree/internal/memsim"
	"partree/internal/runner"
)

func tinySession() *Session {
	return NewSession(runner.New(0), Options{Sizes: []int{1024, 2048}, MeasuredSteps: 1})
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	s := tinySession()
	for _, e := range All() {
		if e.ID == "X1" || e.ID == "X2" || e.ID == "X3" {
			continue // extensions: large processor counts / subset of algorithms
		}
		var buf bytes.Buffer
		e.Run(s, &buf)
		out := buf.String()
		if len(out) == 0 {
			t.Fatalf("%s produced no output", e.ID)
		}
		for _, alg := range core.Algorithms() {
			if e.ID == "T1" {
				break // Table 1 is per-platform, not per-algorithm
			}
			if !strings.Contains(out, alg.String()) {
				t.Fatalf("%s output missing algorithm %v:\n%s", e.ID, alg, out)
			}
		}
	}
}

func TestSessionCSVDump(t *testing.T) {
	s := tinySession()
	s.Outcome(memsim.Challenge(), core.SPACE, 2, 1024)
	s.Seq(memsim.Challenge(), 1024)
	var buf bytes.Buffer
	if err := s.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "tree_share") {
		t.Fatalf("missing header: %q", lines[0])
	}
	if !strings.Contains(buf.String(), "SEQUENTIAL") {
		t.Fatal("sequential row not tagged")
	}
}

func TestFindExperiments(t *testing.T) {
	for _, id := range []string{"T1", "T2", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "S15", "X1", "X2", "X3"} {
		if _, ok := Find(id); !ok {
			t.Fatalf("experiment %s not registered", id)
		}
	}
	if _, ok := Find("F99"); ok {
		t.Fatal("found bogus experiment")
	}
}

func TestSessionMemoizes(t *testing.T) {
	s := tinySession()
	a := s.Outcome(memsim.Challenge(), core.SPACE, 4, 1024)
	b := s.Outcome(memsim.Challenge(), core.SPACE, 4, 1024)
	if a.TotalNs() != b.TotalNs() {
		t.Fatal("memoized outcomes differ")
	}
	if len(s.r.Results()) != 1 {
		t.Fatalf("want exactly one cached result, got %d", len(s.r.Results()))
	}
}

func TestHeadlineShapesHold(t *testing.T) {
	// The paper's core quantitative claims, checked at small scale.
	s := NewSession(runner.New(0), Options{Sizes: []int{8192}, MeasuredSteps: 1})
	n := 8192

	// HLRC: SPACE performs well, ORIG near/below 1, ordering holds.
	ty := memsim.TyphoonHLRC()
	spSpace := s.Speedup(ty, core.SPACE, 16, n)
	spPartree := s.Speedup(ty, core.PARTREE, 16, n)
	spLocal := s.Speedup(ty, core.LOCAL, 16, n)
	spOrig := s.Speedup(ty, core.ORIG, 16, n)
	if !(spSpace > spPartree && spPartree > spLocal && spLocal > spOrig) {
		t.Fatalf("HLRC ordering broken: SPACE=%.2f PARTREE=%.2f LOCAL=%.2f ORIG=%.2f",
			spSpace, spPartree, spLocal, spOrig)
	}
	if spOrig > 1.8 {
		t.Fatalf("ORIG on HLRC should be near slowdown, got %.2f", spOrig)
	}
	if spSpace < 4 {
		t.Fatalf("SPACE on HLRC should deliver a real speedup, got %.2f", spSpace)
	}

	// Challenge: everything speeds up decently.
	ch := memsim.Challenge()
	for _, alg := range core.Algorithms() {
		if sp := s.Speedup(ch, alg, 16, n); sp < 5 {
			t.Fatalf("%v on Challenge speedup %.2f too low", alg, sp)
		}
	}

	// Figure 15 ordering: locks fall ORIG >= LOCAL > UPDATE > PARTREE > SPACE=0,
	// and HLRC requires more locks than Origin for the same algorithm.
	or := memsim.Origin2000(16)
	locksOr := map[core.Algorithm]int64{}
	locksTy := map[core.Algorithm]int64{}
	for _, alg := range core.Algorithms() {
		locksOr[alg] = s.Outcome(or, alg, 16, n).TotalLocks()
		locksTy[alg] = s.Outcome(ty, alg, 16, n).TotalLocks()
	}
	if !(locksOr[core.ORIG] >= locksOr[core.LOCAL] &&
		locksOr[core.LOCAL] > locksOr[core.UPDATE] &&
		locksOr[core.UPDATE] > locksOr[core.PARTREE] &&
		locksOr[core.PARTREE] > 0 && locksOr[core.SPACE] == 0) {
		t.Fatalf("Origin lock ordering broken: %v", locksOr)
	}
	for _, alg := range []core.Algorithm{core.ORIG, core.LOCAL, core.UPDATE, core.PARTREE} {
		if locksTy[alg] <= locksOr[alg] {
			t.Fatalf("%v: HLRC locks %d not above Origin locks %d", alg, locksTy[alg], locksOr[alg])
		}
	}
}
