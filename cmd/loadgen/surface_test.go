package main

import (
	"flag"
	"strings"
	"testing"
	"time"

	"partree/internal/obs/obstest"
	"partree/internal/workload"
)

// TestScheduleDigestH2 pins the report's schedule digest to the one h2
// committed (hypotheses/h2-eviction-p99/results/evict.report.json): the
// same arrival spec, horizon, seed and mode must hash to the same
// traffic, whatever code writes the canonical lines.
func TestScheduleDigestH2(t *testing.T) {
	p, err := workload.ParseArrival("diurnal:rate=40,period=2s,depth=0.9")
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule(3*time.Second, 1998)
	if len(sched) != 143 {
		t.Fatalf("%d arrivals, want 143", len(sched))
	}
	const want = "ef01de60ccbb109754ee34781722a9468bed1a5f49012a0bcb79bde30708fb18"
	if got := scheduleDigest(sched, "session"); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestFlagSurface pins loadgen's flags — names, defaults and usage
// strings — to testdata/loadgen.help: adding or removing a flag must
// edit the golden too (-update rewrites it).
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var help strings.Builder
	fs.SetOutput(&help)
	bindFlags(fs)
	if err := fs.Parse([]string{"-h"}); err != flag.ErrHelp {
		t.Fatalf("-h: %v, want flag.ErrHelp", err)
	}
	obstest.Golden(t, "testdata/loadgen.help", help.String())
}
