package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table renders experiment results as an aligned text table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddResult appends a standard result row —
// system, clients, MB/s, elapsed, lock-wait — after any leading cells
// (a sweep's parameter column).
func (t *Table) AddResult(r Result, lead ...string) {
	t.AddRow(append(lead,
		r.System.String(),
		fmt.Sprintf("%d", r.Clients),
		fmt.Sprintf("%.1f", r.MBps),
		fmt.Sprintf("%.3fs", r.Elapsed.Seconds()),
		fmt.Sprintf("%.3fs", r.LockWait.Seconds()),
	)...)
}

// StandardHeader is the column set AddResult fills.
func StandardHeader() []string {
	return []string{"system", "clients", "MB/s", "elapsed", "lock-wait"}
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	writeRow := func(row []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	rule := make([]string, cols)
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Ratio computes a/b guarding against division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
