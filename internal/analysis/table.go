// Package analysis contains the experiment harness: recoloring-time
// matrices, parameter sweeps and the generators that regenerate every table
// and figure of the paper's evaluation (experiments E01..E18, indexed in
// DESIGN.md and EXPERIMENTS.md).
package analysis

import (
	"strconv"
	"strings"
)

// Table is a rendered experiment result: a title, an optional free-text
// note, a header row and data rows.  Tables print as aligned text (for the
// terminal and EXPERIMENTS.md) and as CSV (for further processing).
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// NewTable creates an empty table with the given title and headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a data row.  Missing cells are filled with empty strings;
// extra cells are kept (the renderer widens the table).
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(cells))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// columns returns the widest row length including the header.
func (t *Table) columns() int {
	n := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > n {
			n = len(r)
		}
	}
	return n
}

// Render returns the aligned text form of the table.
func (t *Table) Render() string {
	cols := t.columns()
	widths := make([]int, cols)
	measure := func(row []string) {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}

	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("-", len(t.Title)))
		b.WriteByte('\n')
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
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	if len(t.Headers) > 0 {
		writeRow(t.Headers)
		total := 0
		for _, w := range widths {
			total += w + 2
		}
		b.WriteString(strings.Repeat("=", total))
		b.WriteByte('\n')
	}
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Note != "" {
		b.WriteString("note: ")
		b.WriteString(t.Note)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV returns the comma-separated form of the table (headers first).  Cells
// containing commas or quotes are quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(row []string) {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(strconv.Quote(c))
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// Markdown returns the GitHub-flavoured markdown form of the table, used to
// embed results into EXPERIMENTS.md.
func (t *Table) Markdown() string {
	var b strings.Builder
	writeRow := func(row []string) {
		b.WriteString("| ")
		for i := 0; i < t.columns(); i++ {
			cell := ""
			if i < len(row) {
				cell = row[i]
			}
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(cell)
		}
		b.WriteString(" |\n")
	}
	writeRow(t.Headers)
	b.WriteString("|")
	for i := 0; i < t.columns(); i++ {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// itoa is a tiny alias used by the experiment generators.
func itoa(v int) string { return strconv.Itoa(v) }

// boolMark renders a boolean as a compact yes/no marker.
func boolMark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
