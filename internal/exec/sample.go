package exec

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"

	"acquire/internal/agg"
	"acquire/internal/data"
	"acquire/internal/relq"
)

// Sampled is a sampling evaluation layer (§3: the evaluation layer
// "can be replaced with other techniques such as estimation, and/or
// sampling"): it executes queries exactly over a Bernoulli row sample
// of every table and extrapolates the extensive aggregates.
//
// COUNT and SUM (and additive UDA summaries) scale by the inverse
// sampling fraction; MIN/MAX/AVG are reported from the sample
// unscaled (they are intensive — sampling only adds noise). For join
// queries each side is sampled independently, so joint-inclusion
// probability is fraction^k for a k-table join; extrapolation uses
// that joint factor.
type Sampled struct {
	*Engine
	full     *data.Catalog
	fraction float64
}

// NewSampled builds a sampling evaluator over the catalog with the
// given per-row inclusion probability (0 < fraction <= 1) and seed.
func NewSampled(full *data.Catalog, fraction float64, seed int64) (*Sampled, error) {
	if fraction <= 0 || fraction > 1 {
		return nil, fmt.Errorf("exec: sampling fraction must be in (0, 1], got %v", fraction)
	}
	rng := rand.New(rand.NewSource(seed))
	sampleCat := data.NewCatalog()
	for _, name := range full.Names() {
		t, err := full.Table(name)
		if err != nil {
			return nil, err
		}
		st := data.NewTable(t.Name(), t.Schema())
		row := make([]data.Value, t.Schema().Len())
		for r := 0; r < t.NumRows(); r++ {
			if rng.Float64() >= fraction {
				continue
			}
			for c := range row {
				row[c] = t.ValueAt(r, c)
			}
			if err := st.AppendRow(row...); err != nil {
				return nil, err
			}
		}
		if st.NumRows() == 0 {
			return nil, fmt.Errorf("exec: sample of table %s is empty; raise the fraction", name)
		}
		if err := sampleCat.Register(st); err != nil {
			return nil, err
		}
	}
	e := New(sampleCat)
	e.sampled = true
	return &Sampled{Engine: e, full: full, fraction: fraction}, nil
}

// Fraction returns the per-row inclusion probability.
func (s *Sampled) Fraction() float64 { return s.fraction }

// FullCatalog returns the unsampled catalog the sample was drawn from.
func (s *Sampled) FullCatalog() *data.Catalog { return s.full }

// extrapolate scales the extensive aggregates of a sample partial by
// the inverse joint inclusion probability across independently sampled
// tables. With an observer attached, each extrapolation is counted and
// (at debug level) logged with its scale factor.
func (s *Sampled) extrapolate(p *agg.Partial, q *relq.Query) {
	joint := math.Pow(s.fraction, float64(len(q.Tables)))
	scale := 1 / joint
	sampleCount := p.Count
	p.Count = int64(math.Round(float64(p.Count) * scale))
	p.Sum *= scale
	p.User *= scale
	if o := s.Engine.Observer(); o != nil {
		o.Counter("acquire_sample_extrapolations_total",
			"Aggregates extrapolated from a Bernoulli sample (§3 sampling evaluation layer).").Inc()
		if o.LogEnabled(slog.LevelDebug) {
			o.Debug("engine.extrapolate", "scale", scale,
				"sample_count", sampleCount, "count", p.Count)
		}
	}
}

// Aggregate executes over the sample and extrapolates.
func (s *Sampled) Aggregate(q *relq.Query, region relq.Region) (agg.Partial, error) {
	p, err := s.Engine.Aggregate(q, region)
	if err != nil {
		return agg.Zero(), err
	}
	s.extrapolate(&p, q)
	return p, nil
}

// AggregateBatch executes the batch over the sample and extrapolates
// every partial. It must shadow the embedded Engine's method — the
// embedded form would return raw sample counts.
func (s *Sampled) AggregateBatch(ctx context.Context, q *relq.Query, regions []relq.Region) ([]agg.Partial, error) {
	parts, err := s.Engine.AggregateBatch(ctx, q, regions)
	if err != nil {
		return nil, err
	}
	for i := range parts {
		s.extrapolate(&parts[i], q)
	}
	return parts, nil
}
