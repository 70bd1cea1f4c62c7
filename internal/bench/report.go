package bench

import (
	"fmt"
	"strings"
)

// Report is one experiment's output table, printable as fixed-width text —
// the regenerated analog of a paper table/figure.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// WallClock lists the indices of the columns that hold wall-clock
	// timings: they move with the host, so EXPERIMENTS.md's generated
	// blocks are checked for their presence, not their values.
	WallClock []int
}

// AddRow appends a row of already-formatted cells.
func (r *Report) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// F formats a float compactly for report cells.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000000:
		return fmt.Sprintf("%.2e", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
