// Package obstest pins a binary's /metrics surface in tests: the part of
// a page that dashboards and alerts are written against, with everything
// that varies from run to run dropped.
package obstest

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleValues matches what varies in a sample line: each quoted label
// value, and the sample value at the end.
var sampleValues = regexp.MustCompile(`="(?:[^"\\]|\\.)*"| \S+$`)

// Surface reduces a text exposition page to its "# HELP" and "# TYPE"
// lines, verbatim, and under each family one line per run of samples
// that share a name and label names: `name{label,names} xN`.
func Surface(page string) string {
	var b strings.Builder
	shape, n := "", 0
	flush := func() {
		if n > 0 {
			fmt.Fprintf(&b, "%s x%d\n", shape, n)
		}
		n = 0
	}
	for _, line := range strings.Split(strings.TrimSpace(page), "\n") {
		if strings.HasPrefix(line, "#") {
			flush()
			b.WriteString(line + "\n")
			continue
		}
		if s := sampleValues.ReplaceAllString(line, ""); s != shape {
			flush()
			shape = s
		}
		n++
	}
	flush()
	return b.String()
}

// Golden compares got with the file at path byte for byte; under -update
// it writes the file first.
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s: the /metrics surface changed.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
