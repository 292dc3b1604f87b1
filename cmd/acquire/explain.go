package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"sync"
	"time"
)

// explainRows are the events -explain prints, each as its attributes by
// key, in the order the search emitted them: one search.point per
// explored grid query and one search.layer per Expand layer. Points
// arrive in exploration order, so the first table is a readable proof
// of Theorem 2's layer ordering.
type explainRows struct {
	mu             sync.Mutex
	points, layers []map[string]slog.Value
}

// WriteTo renders the rows as aligned tables: the points first, then,
// when the search reported any, one row per Expand layer with its
// batch width and wall time.
func (x *explainRows) WriteTo(w io.Writer) (int64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-24s  %10s  %12s  %8s  %s\n",
		"seq", "scores", "QScore", "aggregate", "err", "outcome")
	for _, p := range x.points {
		scores, _ := p["scores"].Any().([]float64)
		fmt.Fprintf(&b, "%4d  %-24s  %10.3f  %12.4g  %8.4f  %s\n", p["seq"].Int64(), scoresString(scores),
			p["qscore"].Float64(), p["aggregate"].Float64(), p["err"].Float64(), p["outcome"])
	}
	if len(x.layers) > 0 {
		fmt.Fprintf(&b, "\n%5s  %10s  %6s  %6s  %s\n",
			"layer", "QScore", "width", "batch", "wall")
		for _, l := range x.layers {
			wall := time.Duration(math.Round(l["wall_ms"].Float64() * float64(time.Millisecond)))
			fmt.Fprintf(&b, "%5d  %10.3f  %6d  %6d  %s\n",
				l["layer"].Int64(), l["qscore"].Float64(), l["width"].Int64(), l["batch_width"].Int64(), wall)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func scoresString(scores []float64) string {
	parts := make([]string, len(scores))
	for i, s := range scores {
		parts[i] = fmt.Sprintf("%.3g", s)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// explainHandler is the slog.Handler behind -explain. It keeps every
// search.point and search.layer record in rows and passes every record
// on to next (the -log-json handler), when there is one.
type explainHandler struct {
	rows *explainRows
	next slog.Handler
}

// Enabled admits every level: search.point is a debug event.
func (h explainHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h explainHandler) Handle(ctx context.Context, r slog.Record) error {
	if r.Message == "search.point" || r.Message == "search.layer" {
		attrs := make(map[string]slog.Value, r.NumAttrs())
		r.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value
			return true
		})
		h.rows.mu.Lock()
		if r.Message == "search.point" {
			h.rows.points = append(h.rows.points, attrs)
		} else {
			h.rows.layers = append(h.rows.layers, attrs)
		}
		h.rows.mu.Unlock()
	}
	if h.next != nil && h.next.Enabled(ctx, r.Level) {
		return h.next.Handle(ctx, r)
	}
	return nil
}

func (h explainHandler) WithAttrs(as []slog.Attr) slog.Handler {
	if h.next != nil {
		h.next = h.next.WithAttrs(as)
	}
	return h
}

func (h explainHandler) WithGroup(name string) slog.Handler {
	if h.next != nil {
		h.next = h.next.WithGroup(name)
	}
	return h
}
