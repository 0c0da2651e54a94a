// Package stats provides the small formatting and aggregation helpers the
// experiment harness uses: aligned text tables, ASCII bar series for
// "figures", and numeric summaries.
package stats

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// Row appends a row; values are formatted with %v (floats with %.2f).
func (t *Table) Row(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		case string:
			row[i] = x
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table. Columns are sized in runes, not bytes, so a
// "µs" cell lines up with its neighbours.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(c))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// WriteCSV renders the table as RFC-4180 CSV (header row first) —
// machine-readable twin of Write for trace breakdowns and sweep dumps.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func pad(s string, w int) string {
	return s + strings.Repeat(" ", max(0, w-utf8.RuneCountInString(s)))
}

// Bars renders a labelled horizontal ASCII bar series, scaled to maxWidth
// characters — the harness's stand-in for the paper's figures. A NaN value
// is a missing measurement and prints as "-".
func Bars(w io.Writer, title string, labels []string, values []float64, unit string) {
	fmt.Fprintln(w, title)
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	lw := 0
	for _, l := range labels {
		if len(l) > lw {
			lw = len(l)
		}
	}
	const maxWidth = 46
	for i, v := range values {
		if math.IsNaN(v) {
			fmt.Fprintf(w, "  %s  -\n", pad(labels[i], lw))
			continue
		}
		n := 0
		if max > 0 {
			n = int(math.Round(v / max * maxWidth))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(w, "  %s  %s %.2f%s\n", pad(labels[i], lw), strings.Repeat("#", n), v, unit)
	}
}

// Seconds renders simulated nanoseconds as seconds with sensible digits.
func Seconds(ns float64) string {
	s := ns / 1e9
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 1e-3:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}

// Summary is a mean/min/max aggregate over a slice.
type Summary struct {
	Mean, Min, Max float64
}

// Summarize computes a Summary over int64 values.
func Summarize(xs []int64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Min: float64(xs[0]), Max: float64(xs[0])}
	var sum float64
	for _, x := range xs {
		v := float64(x)
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(xs))
	return s
}
