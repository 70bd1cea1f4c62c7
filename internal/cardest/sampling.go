package cardest

import (
	"context"
	"math"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/query"
)

// SamplingEstimator executes queries on uniformly sampled mini-tables and
// scales the result — the classical sampling baseline ([14, 21]'s point of
// departure). Zero sample hits fall back to a fraction-of-a-row estimate,
// reproducing sampling's well-known failure mode on selective joins.
type SamplingEstimator struct {
	miniCat *data.Catalog
	scale   map[string]float64 // table → N/n
	ex      *exec.Executor
	cat     *data.Catalog
}

// samplingRows is the per-table sample size.
const samplingRows = 150

// NewSamplingEstimator returns a sampling estimator.
func NewSamplingEstimator() *SamplingEstimator { return &SamplingEstimator{} }

// Name implements Estimator.
func (s *SamplingEstimator) Name() string { return "sampling" }

// Train materializes per-table samples (using the row ids sampled during
// statistics collection, truncated to samplingRows) into a mini-catalog.
func (s *SamplingEstimator) Train(ctx *Context) error {
	s.cat = ctx.Cat
	s.miniCat = data.NewCatalog()
	s.scale = make(map[string]float64)
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		ts := ctx.Stats.Tables[tn]
		rows := ts.Sample
		if len(rows) > samplingRows {
			rows = rows[:samplingRows]
		}
		mini := data.NewTable(tn)
		for _, c := range t.Cols {
			mc := &data.Column{Name: c.Name, Kind: c.Kind, Dict: c.Dict}
			for _, r := range rows {
				if c.Kind == data.Float {
					mc.AppendFloat(c.Flts[r])
				} else {
					mc.AppendInt(c.Ints[r])
				}
			}
			if err := mini.AddColumn(mc); err != nil {
				return err
			}
		}
		if len(rows) > 0 {
			s.scale[tn] = float64(t.NumRows()) / float64(len(rows))
		} else {
			s.scale[tn] = 1
		}
		s.miniCat.Add(mini)
	}
	s.ex = exec.New(s.miniCat)
	return nil
}

// Estimate runs q over the sampled mini-catalog and scales by the product
// of per-table sampling rates.
func (s *SamplingEstimator) Estimate(q *query.Query) float64 {
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		return 0
	}
	res, err := s.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		return 0
	}
	factor := 1.0
	for _, r := range q.Refs {
		factor *= s.scale[r.Table]
	}
	est := float64(res.Count) * factor
	if res.Count == 0 {
		// No sample hits: estimate below one fully-scaled tuple.
		est = math.Sqrt(factor) / 2
	}
	return clampCard(est, s.cat, q)
}
