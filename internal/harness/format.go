package harness

import (
	"fmt"
	"sort"
	"strings"

	"acquire/internal/obs"
)

// FormatFigure renders a figure as an aligned text table, one row per
// x position, one column per series — the textual equivalent of the
// paper's plot.
func FormatFigure(f Figure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "(y = %s)\n", f.YLabel)

	headers := make([]string, 0, len(f.Series)+1)
	headers = append(headers, f.XLabel)
	for _, s := range f.Series {
		headers = append(headers, s.Name)
	}
	rows := make([][]string, len(f.X))
	for i, x := range f.X {
		row := make([]string, 0, len(headers))
		row = append(row, formatVal(x))
		for _, s := range f.Series {
			row = append(row, formatVal(s.Y[i]))
		}
		rows[i] = row
	}

	widths := make([]int, len(headers))
	for j, h := range headers {
		widths[j] = len(h)
	}
	for _, row := range rows {
		for j, cell := range row {
			if len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for j, c := range cells {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[j], c)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for j := range sep {
		sep[j] = strings.Repeat("-", widths[j])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func formatVal(v float64) string {
	switch {
	case v != v: // NaN
		return "-"
	case v == float64(int64(v)) && v < 1e7 && v > -1e7:
		return fmt.Sprintf("%d", int64(v))
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// LatencySummary renders every duration histogram of the registry —
// the per-phase and per-query spans an instrumented run accumulates —
// as a quantile table (count, p50, p95, p99, in milliseconds, by
// bucket interpolation). Returns "" when the registry is nil or holds
// no observations, so callers can print it unconditionally.
func LatencySummary(reg *obs.Registry) string {
	if reg == nil {
		return ""
	}
	type row struct {
		name          string
		count         int64
		p50, p95, p99 float64
	}
	var rows []row
	reg.VisitHistograms(func(name string, h *obs.Histogram) {
		if h.Count() == 0 {
			return
		}
		// Only duration histograms belong in a latency table; unitless
		// ones (e.g. the selection-density histogram) would be garbled
		// by the seconds-to-ms scaling.
		if !strings.Contains(name, "_seconds") {
			return
		}
		rows = append(rows, row{
			name: name, count: h.Count(),
			p50: h.Quantile(0.50) * 1e3,
			p95: h.Quantile(0.95) * 1e3,
			p99: h.Quantile(0.99) * 1e3,
		})
	})
	if len(rows) == 0 {
		return ""
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	w := len("series")
	for _, r := range rows {
		if len(r.name) > w {
			w = len(r.name)
		}
	}
	var b strings.Builder
	b.WriteString("Latency quantiles (bucket-interpolated, ms)\n")
	fmt.Fprintf(&b, "%-*s  %8s  %9s  %9s  %9s\n", w, "series", "count", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s  %8d  %9.3f  %9.3f  %9.3f\n", w, r.name, r.count, r.p50, r.p95, r.p99)
	}
	return b.String()
}

// Table1 renders the related-work capability matrix of the paper's
// Table 1, restricted to the methods implemented in this repository.
// The rows are generated from the same capability flags the code
// enforces (TopK rejects SUM and joins; BinSearch/TQGen only target
// cardinality; ACQUIRE handles OSP aggregates, proximity and query
// output).
func Table1() string {
	type row struct {
		method, aggregates        string
		proximity, card, queryOut bool
	}
	rows := []row{
		{"Top-k (tuple-oriented)", "COUNT", true, true, false},
		{"BinSearch (query-oriented)", "COUNT", false, true, true},
		{"TQGen (query-oriented)", "COUNT", false, true, true},
		{"ACQUIRE", "COUNT, SUM, MIN, MAX, AVG, UDA", true, true, true},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return ""
	}
	var b strings.Builder
	b.WriteString("Table 1: Summary of implemented techniques\n")
	fmt.Fprintf(&b, "%-28s  %-32s  %-9s  %-5s  %-5s\n", "Technique", "Aggregates", "Proximity", "Card.", "Query")
	fmt.Fprintf(&b, "%-28s  %-32s  %-9s  %-5s  %-5s\n",
		strings.Repeat("-", 28), strings.Repeat("-", 32), strings.Repeat("-", 9), strings.Repeat("-", 5), strings.Repeat("-", 5))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s  %-32s  %-9s  %-5s  %-5s\n",
			r.method, r.aggregates, mark(r.proximity), mark(r.card), mark(r.queryOut))
	}
	return b.String()
}
