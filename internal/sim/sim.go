// Package sim is the experiment harness: it renders the twenty-one
// per-theorem experiments of EXPERIMENTS.md (E1–E21) as tables, with
// fixed-seed replication and simple summary statistics. Experiments run
// their sweep cells on a worker pool (see Config.Workers and engine.go)
// with output that is bit-identical at any worker count. cmd/experiments
// and the root benchmark suite are thin wrappers around this package.
package sim

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is one experiment's result: a titled grid of rendered cells.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cell counts are validated at render time.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table in aligned plain text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "  %s\n", t.Note); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) {
			return fmt.Errorf("sim: row has %d cells, header has %d", len(row), len(t.Header))
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return "  " + strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := 2
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, "  "+strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, width int) string {
	if len(s) >= width {
		return s
	}
	return s + strings.Repeat(" ", width-len(s))
}

// Stats summarizes a sample.
type Stats struct {
	Mean   float64
	StdErr float64
	N      int
}

// Summarize computes mean and standard error.
func Summarize(xs []float64) Stats {
	n := len(xs)
	if n == 0 {
		return Stats{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	se := 0.0
	if n > 1 {
		se = math.Sqrt(ss / float64(n-1) / float64(n))
	}
	return Stats{Mean: mean, StdErr: se, N: n}
}

// F formats a float compactly for table cells.
func F(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsNaN(v):
		return "nan"
	case v != 0 && math.Abs(v) < 0.001:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 100000:
		return fmt.Sprintf("%.3e", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// FitSlope returns the least-squares slope and intercept of y against x —
// used to report how measured information costs scale against log k.
func FitSlope(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, fmt.Errorf("sim: need >= 2 paired points, got %d/%d", len(x), len(y))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("sim: degenerate x values")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}
