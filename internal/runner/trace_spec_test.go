package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"partree/internal/core"
)

// chromeEvent is the subset of the trace_event record the tests decode.
type chromeEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat"`
	Ph   string `json:"ph"`
	Tid  int    `json:"tid"`
	Args struct {
		WaitNs int64 `json:"wait_ns"`
		HoldNs int64 `json:"hold_ns"`
	} `json:"args"`
}

func readChromeTrace(t *testing.T, path string) []chromeEvent {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf, &evs); err != nil {
		t.Fatalf("%s is not a JSON trace_event array: %v", path, err)
	}
	return evs
}

// TestTracedSpecWritesConsistentTimeline runs one traced spec per
// backend and checks the whole chain: the file exists and parses as a
// Chrome trace_event array, its per-processor lock-event counts equal
// the Result's LocksPerProc, and its recorder's summary agrees.
func TestTracedSpecWritesConsistentTimeline(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]Spec{
		"native-build": {Backend: Native, Alg: core.ORIG, Procs: 4, Bodies: 2048,
			Steps: 2, Seed: 7, BuildOnly: true, Check: true},
		"simulated": {Backend: Simulated, Platform: "challenge", Alg: core.ORIG,
			Procs: 4, Bodies: 1024, Steps: 1, Seed: 7},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			spec.Trace = filepath.Join(dir, name+".json")
			res := New(0).Run(context.Background(), spec)
			if res.Failed() {
				t.Fatalf("run failed: %s", res.FailureMessage())
			}
			if res.rec == nil {
				t.Fatal("traced spec kept no recorder")
			}
			sum := res.rec.Summarize()
			perProc := sum.LockEventsPerProc()
			if len(perProc) != spec.Procs {
				t.Fatalf("summary covers %d procs, want %d", len(perProc), spec.Procs)
			}

			// Build-only native results report the final repetition's lock
			// counters and the trace covers that same repetition; simulated
			// results and traces both cover every measured step. Either
			// way: exact per-processor equality.
			fileLocks := make([]int64, spec.Procs)
			for _, e := range readChromeTrace(t, spec.Trace) {
				if e.Cat == "lock" {
					fileLocks[e.Tid]++
				}
			}
			for w := 0; w < spec.Procs; w++ {
				if fileLocks[w] != perProc[w] {
					t.Errorf("proc %d: file has %d lock events, summary %d", w, fileLocks[w], perProc[w])
				}
				if want := res.LocksPerProc[w]; perProc[w] != want {
					t.Errorf("proc %d: %d trace lock events, result counters say %d", w, perProc[w], want)
				}
			}
		})
	}
}

// TestTraceIsPartOfSpecIdentity pins that a traced and an untraced run
// of the same cell do not share a cache entry (the trace file must be
// written even when the untraced twin ran first).
func TestTraceIsPartOfSpecIdentity(t *testing.T) {
	dir := t.TempDir()
	plain := Spec{Backend: Simulated, Platform: "challenge", Alg: core.SPACE,
		Procs: 2, Bodies: 512, Steps: 1, Seed: 7}
	traced := plain
	traced.Trace = filepath.Join(dir, "cell.json")
	r := New(0)
	if res := r.Run(context.Background(), plain); res.Failed() {
		t.Fatalf("plain run failed: %s", res.FailureMessage())
	}
	if res := r.Run(context.Background(), traced); res.Failed() {
		t.Fatalf("traced run failed: %s", res.FailureMessage())
	}
	if _, err := os.Stat(traced.Trace); err != nil {
		t.Fatalf("trace file not written after cached untraced run: %v", err)
	}
	if plain.Key() == traced.Key() {
		t.Fatal("traced spec shares a cache key with its untraced twin")
	}
}
