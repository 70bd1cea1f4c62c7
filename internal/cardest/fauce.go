package cardest

import (
	"fmt"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
)

// Fauce [33] estimates cardinality with an ensemble of deep models, whose
// spread the paper reports as each estimate's uncertainty — the Bayesian
// deep-learning idea NNGP [75] pursues analytically. The workbench trains
// K MLPs from different initializations on bootstrap resamples; the
// ensemble mean (log space) is the estimate. No planner here consumes the
// spread, so it is not computed.
type Fauce struct {
	f    *Featurizer
	nets []*ml.Net
	cat  *data.Catalog
}

// NewFauce returns an untrained ensemble estimator.
func NewFauce() *Fauce { return &Fauce{} }

// fauceK is the ensemble size.
const fauceK = 5

// Name implements Estimator.
func (e *Fauce) Name() string { return "fauce" }

// Train fits each member on a bootstrap resample with its own seed.
func (e *Fauce) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: fauce needs a training workload")
	}
	e.cat = ctx.Cat
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	e.nets = e.nets[:0]
	for k := 0; k < fauceK; k++ {
		rng := newRNG(ctx.Seed + 700 + int64(k)*97)
		net, err := ml.NewNet([]int{e.f.Dim(), 48, 24, 1}, ml.ReLU, rng)
		if err != nil {
			return err
		}
		xs := make([][]float64, len(ctx.Train))
		ys := make([]float64, len(ctx.Train))
		for i := range xs {
			s := ctx.Train[rng.Intn(len(ctx.Train))]
			xs[i] = e.f.Vector(s.Q)
			ys[i] = logCard(s.Card)
		}
		ml.TrainRegression(net, xs, ys, 40, 16, 1e-3, rng)
		e.nets = append(e.nets, net)
	}
	return nil
}

// predictLog returns the ensemble's log-space mean.
func (e *Fauce) predictLog(q *query.Query) float64 {
	x := e.f.Vector(q)
	var s float64
	for _, net := range e.nets {
		s += net.Forward(x)[0]
	}
	return s / float64(len(e.nets))
}

// Estimate implements Estimator.
func (e *Fauce) Estimate(q *query.Query) float64 {
	if len(e.nets) == 0 {
		return 0
	}
	return clampCard(unlogCard(e.predictLog(q)), e.cat, q)
}
