package core

import (
	"context"
	"log/slog"
	"math"
	"testing"

	"acquire/internal/agg"
	"acquire/internal/exec"
	"acquire/internal/obs"
	"acquire/internal/relq"
)

// fetchLog is an Evaluator that forwards to a real one and logs every
// region a search sends, split by the search phase whose span the call
// arrived under. As the search's slog.Handler it closes a
// repartition's log when the search.point event of the point that
// caused it arrives. The search calls both from its own goroutine, so
// the log needs no lock: the engine's workers log through the same
// handler, but their events touch nothing.
type fetchLog struct {
	Evaluator
	explore []relq.Region // prefetch batches and on-demand cells of the fold
	reparts []repartLog
	open    [][]relq.Region // probes of the repartition in progress
	// afterProbe, when set, runs once the evaluation layer has answered
	// a probe (the cancellation test cancels the search there).
	afterProbe func()
}

// repartLog is one §6 repartition: the grid point that overshot and the
// probe batches it sent, in order.
type repartLog struct {
	scores []float64
	probes [][]relq.Region
}

func (l *fetchLog) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	sp, _ := obs.SpanFromContext(ctx).Span()
	probe := sp.Name == "repartition"
	if probe {
		l.open = append(l.open, regions)
	} else {
		l.explore = append(l.explore, regions...)
	}
	out, err := l.Evaluator.AggregateBatch(ctx, q, regions)
	if probe && l.afterProbe != nil {
		l.afterProbe()
	}
	return out, err
}

func (l *fetchLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "search.point" && len(l.open) > 0 {
		l.reparts = append(l.reparts, repartLog{scores: decodeEvent(r).scores(), probes: l.open})
		l.open = nil
	}
	return nil
}

func (l *fetchLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *fetchLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *fetchLog) WithGroup(string) slog.Handler            { return l }

// disjoint reports whether two regions share no violation vector: some
// dimension's (Lo, Hi] intervals do not meet.
func disjoint(a, b relq.Region) bool {
	for i := range a {
		if a[i].Hi <= b[i].Lo || b[i].Hi <= a[i].Lo {
			return true
		}
	}
	return false
}

// cellCorner returns the scores of the lower corner of the grid cell
// below the grid point at scores, computed as the search computes them,
// and whether the point is the origin (which has no cell below it).
func cellCorner(scores []float64, step float64) (corner []float64, atOrigin bool) {
	corner, atOrigin = make([]float64, len(scores)), true
	for i, s := range scores {
		if c := math.Round(s / step); c > 0 {
			corner[i], atOrigin = (c-1)*step, false
		}
	}
	return corner, atOrigin
}

// TestFetchOnce is the §5 checker, "every region of the data is scanned
// at most once", on whole searches that repartition: the regions the
// Explore phase requests are pairwise disjoint, and a §6 probe requests
// only thin boxes of its own cell that lie beyond everything the
// repartition already holds — never a prefix from the origin.
func TestFetchOnce(t *testing.T) {
	const gamma, delta, depth = 20, 0.005, 8
	plain := exec.New(mixedTable(t, 11, 12000))
	for d := 1; d <= 4; d++ {
		for _, f := range []relq.AggFunc{relq.AggCount, relq.AggSum} {
			q := betweenLayers(t, plain, f, mixedDims(d), gamma)
			log := &fetchLog{Evaluator: plain}
			// A flight recorder turns the span tree on; the log reads the
			// phase off the span each batch arrives under.
			o := obs.NewObserver(nil).WithRecorder(obs.NewFlightRecorder(obs.RecorderConfig{})).WithLogger(slog.New(log))
			_, err := Run(log, q, Options{Gamma: gamma, Delta: delta, RepartitionDepth: depth,
				ErrFn: agg.RelativeError, Observer: o})
			if err != nil {
				t.Fatalf("d=%d %s: %v", d, f, err)
			}

			for i, a := range log.explore {
				for _, b := range log.explore[:i] {
					if !disjoint(a, b) {
						t.Errorf("d=%d %s: Explore fetched overlapping regions %v and %v", d, f, a, b)
					}
				}
			}

			if len(log.reparts) == 0 {
				t.Errorf("d=%d %s: the search never repartitioned", d, f)
			}
			step := gamma / float64(d)
			for _, rp := range log.reparts {
				// held is the largest prefix the repartition knows not to
				// overshoot: the cell's lower corner, then every probe
				// that undershot. Whether one did is asked of the engine,
				// not read back out of the boxes that follow.
				held, _ := cellCorner(rp.scores, step)
				if len(rp.probes) > depth {
					t.Errorf("d=%d %s at %v: %d probes, b = %d", d, f, rp.scores, len(rp.probes), depth)
				}
				for _, boxes := range rp.probes {
					if len(boxes) == 0 || len(boxes) > d {
						t.Fatalf("d=%d %s at %v: probe of %d regions", d, f, rp.scores, len(boxes))
					}
					for i, box := range boxes {
						lower := 0
						for k, iv := range box {
							if iv.Lo >= 0 {
								lower++
							}
							if iv.Hi > rp.scores[k] {
								t.Errorf("d=%d %s at %v: probe region %v leaves the cell", d, f, rp.scores, box)
							}
						}
						if lower != 1 {
							t.Errorf("d=%d %s at %v: probe region %v has %d lower-bounded dimensions, want 1 (a shell box)", d, f, rp.scores, box, lower)
						}
						if !disjoint(box, relq.PrefixRegion(held)) {
							t.Errorf("d=%d %s at %v: probe region %v re-reads the held prefix %v", d, f, rp.scores, box, held)
						}
						for _, other := range boxes[:i] {
							if !disjoint(box, other) {
								t.Errorf("d=%d %s at %v: one probe sent overlapping %v and %v", d, f, rp.scores, box, other)
							}
						}
					}
					// The first box keeps the probe's own bound on every
					// dimension it did not narrow: its Hi vector is mid.
					mid := boxes[0].MaxViolation()
					if !agg.Overshoots(q.Constraint, finalAt(t, plain.Aggregate, q, mid), delta) {
						held = mid
					}
				}
			}
		}
	}
}
