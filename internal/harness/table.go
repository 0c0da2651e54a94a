package harness

import (
	"io"
	"math"
	"strconv"

	"partree/internal/runner"
	"partree/internal/stats"
)

// Table is one block of an experiment's output, as data: a caption, a
// grid of cells under a header, and a closing note. Caption and Note are
// written verbatim.
type Table struct {
	Caption string
	Header  []string // the row-label column first
	Rows    []Row
	// BarUnit, when non-empty, renders each row's one cell as a bar of
	// an ASCII bar series (the stand-in for a plotted figure) suffixed
	// with the unit, instead of a grid; Header is unused.
	BarUnit string
	Note    string
}

// Row is one labelled line of a table.
type Row struct {
	Label string
	Cells []Cell
}

// Cell is one entry of a table: the specs it reads — of either backend —
// and a formatter over their results, in the same order. Value returns
// the text to print, or a float64 for stats.Table's two-decimal form (and
// for a bar's length); it is called once, after every spec of the
// experiment has run, and only when none of the cell's specs failed.
type Cell struct {
	Specs []runner.Spec
	Value func(rs []runner.Result) any
}

// table declares a grid: one row per element of rows, one column per
// element of cols, under a header whose first column is corner.
func table[R, C any](caption, corner string, rows []R, rowLabel func(R) string, cols []C, colLabel func(C) string, cell func(R, C) Cell) Table {
	t := Table{Caption: caption, Header: []string{corner}}
	for _, c := range cols {
		t.Header = append(t.Header, colLabel(c))
	}
	for _, r := range rows {
		row := Row{Label: rowLabel(r)}
		for _, c := range cols {
			row.Cells = append(row.Cells, cell(r, c))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// sizeLabel is a body count as the tables print it: in units of 1024
// where that is exact, the plain count otherwise.
func sizeLabel(n int) string {
	if n%1024 == 0 {
		return strconv.Itoa(n/1024) + "k"
	}
	return strconv.Itoa(n)
}

func procLabel(p int) string { return strconv.Itoa(p) + "p" }

// render writes the table, reading each cell's results through result. A
// cell that reads a failed result prints "-".
func (t Table) render(w io.Writer, result func(runner.Spec) runner.Result) {
	io.WriteString(w, t.Caption)
	value := func(c Cell) any {
		rs := make([]runner.Result, len(c.Specs))
		for i, sp := range c.Specs {
			if rs[i] = result(sp); rs[i].Failed() {
				return "-"
			}
		}
		return c.Value(rs)
	}
	if t.BarUnit != "" {
		labels, values := make([]string, len(t.Rows)), make([]float64, len(t.Rows))
		for i, r := range t.Rows {
			labels[i] = r.Label
			var ok bool
			if values[i], ok = value(r.Cells[0]).(float64); !ok {
				values[i] = math.NaN() // stats.Bars prints it as "-"
			}
		}
		stats.Bars(w, "", labels, values, t.BarUnit)
	} else {
		st := stats.NewTable(t.Header...)
		for _, r := range t.Rows {
			row := []any{r.Label}
			for _, c := range r.Cells {
				row = append(row, value(c))
			}
			st.Row(row...)
		}
		st.Write(w)
	}
	io.WriteString(w, t.Note)
}
