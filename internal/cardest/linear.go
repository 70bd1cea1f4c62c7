package cardest

import (
	"fmt"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
)

// LinearEstimator is the earliest query-driven method [36]: ridge
// regression from the featurized query to log-cardinality.
type LinearEstimator struct {
	f     *Featurizer
	model *ml.Ridge
	cat   *data.Catalog
}

// NewLinearEstimator returns an untrained linear estimator.
func NewLinearEstimator() *LinearEstimator { return &LinearEstimator{} }

// Name implements Estimator.
func (e *LinearEstimator) Name() string { return "linear" }

// Train fits ridge regression on the labeled workload.
func (e *LinearEstimator) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: linear estimator needs a training workload")
	}
	e.cat = ctx.Cat
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	xs := make([][]float64, len(ctx.Train))
	ys := make([]float64, len(ctx.Train))
	for i, s := range ctx.Train {
		xs[i] = e.f.Vector(s.Q)
		ys[i] = logCard(s.Card)
	}
	m, err := ml.FitRidge(xs, ys, 1.0)
	if err != nil {
		return fmt.Errorf("cardest: linear fit: %w", err)
	}
	e.model = m
	return nil
}

// Estimate implements Estimator.
func (e *LinearEstimator) Estimate(q *query.Query) float64 {
	if e.model == nil {
		return 0
	}
	return clampCard(unlogCard(e.model.Predict(e.f.Vector(q))), e.cat, q)
}

// GBDTEstimator models log-cardinality with gradient-boosted regression
// trees, the "lightweight model"/XGBoost line of work [9, 10].
type GBDTEstimator struct {
	f     *Featurizer
	model *ml.GBDT
	cat   *data.Catalog
}

// NewGBDTEstimator returns an untrained GBDT estimator.
func NewGBDTEstimator() *GBDTEstimator { return &GBDTEstimator{} }

// Name implements Estimator.
func (e *GBDTEstimator) Name() string { return "gbdt" }

// Train fits the boosted ensemble on the labeled workload.
func (e *GBDTEstimator) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: gbdt estimator needs a training workload")
	}
	e.cat = ctx.Cat
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	xs := make([][]float64, len(ctx.Train))
	ys := make([]float64, len(ctx.Train))
	for i, s := range ctx.Train {
		xs[i] = e.f.Vector(s.Q)
		ys[i] = logCard(s.Card)
	}
	e.model = ml.FitGBDT(xs, ys, ml.GBDTOptions{Rounds: 60, LearnRate: 0.15, Tree: ml.TreeOptions{MaxDepth: 5, MinLeafSize: 3}})
	return nil
}

// Estimate implements Estimator.
func (e *GBDTEstimator) Estimate(q *query.Query) float64 {
	if e.model == nil {
		return 0
	}
	return clampCard(unlogCard(e.model.Predict(e.f.Vector(q))), e.cat, q)
}
