package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableAlignment(t *testing.T) {
	tab := NewTable("name", "value", "time")
	tab.Row("a", 1, "1.48ms")
	tab.Row("longer-name", 3.14159, "1.6ms")
	tab.Row("µ-row", "470µs", "580µs")
	var buf bytes.Buffer
	tab.Write(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	// A multi-byte cell is as wide as its runes: every row's last column
	// starts where the header's does, and the separator is no wider.
	col := utf8.RuneCountInString(lines[0][:strings.Index(lines[0], "time")])
	for _, l := range lines[2:] {
		if r := []rune(l); len(r) <= col || r[col-1] != ' ' || r[col] == ' ' {
			t.Errorf("last column does not start at rune %d: %q", col, l)
		}
	}
	if want := "-----------  -----  ------"; lines[1] != want {
		t.Errorf("separator %q, want %q", lines[1], want)
	}
	if !strings.Contains(lines[3], "3.14") {
		t.Fatalf("float not formatted: %q", lines[3])
	}
	// Column starts align between header and rows.
	idx := strings.Index(lines[0], "value")
	if idx < 0 || len(lines[2]) <= idx {
		t.Fatalf("misaligned header: %q", lines[0])
	}
}

func TestBarsScale(t *testing.T) {
	var buf bytes.Buffer
	Bars(&buf, "title", []string{"a", "bb"}, []float64{1, 2}, "x")
	out := buf.String()
	if !strings.Contains(out, "title") || !strings.Contains(out, "#") {
		t.Fatalf("bars output wrong:\n%s", out)
	}
	// The larger value must have the longer bar.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if strings.Count(lines[1], "#") >= strings.Count(lines[2], "#") {
		t.Fatalf("bar lengths not proportional:\n%s", out)
	}
}

func TestBarsZeroSafe(t *testing.T) {
	var buf bytes.Buffer
	Bars(&buf, "t", []string{"a"}, []float64{0}, "")
	if !strings.Contains(buf.String(), "0.00") {
		t.Fatal("zero bar missing value")
	}
}

func TestBarsMissingValue(t *testing.T) {
	var buf bytes.Buffer
	Bars(&buf, "t", []string{"a", "bb"}, []float64{math.NaN(), 2}, "x")
	if got, want := buf.String(), "t\n  a   -\n  bb  ############################################## 2.00x\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestSeconds(t *testing.T) {
	cases := []struct {
		ns   float64
		want string
	}{
		{2.5e11, "250s"},
		{1.5e9, "1.50s"},
		{2.5e6, "2.5ms"},
		{900, "1µs"},
	}
	for _, c := range cases {
		if got := Seconds(c.ns); got != c.want {
			t.Errorf("Seconds(%g) = %q, want %q", c.ns, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int64{3, 1, 2})
	if s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("summary wrong: %+v", s)
	}
	z := Summarize(nil)
	if z.Mean != 0 || z.Min != 0 || z.Max != 0 {
		t.Fatalf("empty summary wrong: %+v", z)
	}
}
