// Package trace renders simulation results for humans: Figure-2-style
// pipeline diagrams (instructions as rows, cycles as columns, stage names in
// the cells, with stalls shown as repeated ID stages) and aligned statistic
// tables. Run summaries with the stall breakdown are asc.FormatStats.
package trace

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// Diagram renders the pipeline diagram of a sequence of issued instructions
// in the style of Figure 2 of the paper.
func Diagram(params pipeline.Params, recs []core.InstRecord) string {
	if len(recs) == 0 {
		return "(no instructions)\n"
	}
	type row struct {
		label  string
		stages []pipeline.StageAt
	}
	rows := make([]row, 0, len(recs))
	minCycle, maxCycle := recs[0].FetchCycle, int64(0)
	for _, r := range recs {
		tl := params.Timeline(r.Inst, r.FetchCycle, r.Issue)
		rows = append(rows, row{label: fmt.Sprintf("t%d %s", r.Thread, r.Inst), stages: tl})
		if r.FetchCycle < minCycle {
			minCycle = r.FetchCycle
		}
		if last := tl[len(tl)-1].Cycle; last > maxCycle {
			maxCycle = last
		}
	}

	labelW := 0
	for _, r := range rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	const cellW = 4

	var b strings.Builder
	// Header row of cycle numbers.
	b.WriteString(strings.Repeat(" ", labelW))
	for c := minCycle; c <= maxCycle; c++ {
		fmt.Fprintf(&b, " %*d", cellW-1, c)
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s", labelW, r.label)
		col := minCycle
		for _, st := range r.stages {
			for col < st.Cycle {
				b.WriteString(strings.Repeat(" ", cellW))
				col++
			}
			fmt.Fprintf(&b, " %-*s", cellW-1, st.Name)
			col++
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a simple aligned-column text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) *Table {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
	return t
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
