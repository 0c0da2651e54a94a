package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"partree/internal/core"
	"partree/internal/memsim"
	"partree/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestDumpCSVGolden pins DumpCSV's column order, formatting, and row
// ordering byte-for-byte, so the concurrent runner cache can't silently
// reorder or drop rows. Regenerate with: go test ./internal/harness -run Golden -update
func TestDumpCSVGolden(t *testing.T) {
	s := NewSession(runner.New(0), Options{Sizes: []int{1024}, MeasuredSteps: 1})
	// A deliberate mix of platforms, algorithms, and the sequential
	// baseline, computed out of sorted order to prove ordering is
	// imposed by DumpCSV, not by execution order.
	s.Outcome(memsim.TyphoonHLRC(), core.LOCAL, 2, 1024)
	s.Outcome(memsim.Challenge(), core.SPACE, 2, 1024)
	s.Seq(memsim.Challenge(), 1024)
	s.Outcome(memsim.Origin2000(2), core.ORIG, 2, 1024)
	s.Outcome(memsim.Challenge(), core.ORIG, 2, 1024)

	var buf bytes.Buffer
	if err := s.DumpCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "dumpcsv.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("DumpCSV output diverged from golden file %s.\ngot:\n%s\nwant:\n%s",
			path, buf.Bytes(), want)
	}
}
