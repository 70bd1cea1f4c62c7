package cardest

import (
	"fmt"
	"math/rand"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
)

// MLPEstimator is the first DNN cardinality model [32]: a fully connected
// network from the featurized query to log-cardinality.
type MLPEstimator struct {
	f   *Featurizer
	net *ml.Net
	cat *data.Catalog
}

// NewMLPEstimator returns an untrained MLP estimator.
func NewMLPEstimator() *MLPEstimator { return &MLPEstimator{} }

// Name implements Estimator.
func (e *MLPEstimator) Name() string { return "mlp" }

// Train fits the network with Adam on MSE in log space.
func (e *MLPEstimator) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: mlp estimator needs a training workload")
	}
	e.cat = ctx.Cat
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	rng := rand.New(rand.NewSource(ctx.Seed + 101))
	net, err := ml.NewNet([]int{e.f.Dim(), 64, 32, 1}, ml.ReLU, rng)
	if err != nil {
		return err
	}
	e.net = net
	xs := make([][]float64, len(ctx.Train))
	ys := make([]float64, len(ctx.Train))
	for i, s := range ctx.Train {
		xs[i] = e.f.Vector(s.Q)
		ys[i] = logCard(s.Card)
	}
	ml.TrainRegression(e.net, xs, ys, 60, 16, 1e-3, rng)
	return nil
}

// Estimate implements Estimator.
func (e *MLPEstimator) Estimate(q *query.Query) float64 {
	if e.net == nil {
		return 0
	}
	return clampCard(unlogCard(e.net.Forward(e.f.Vector(q))[0]), e.cat, q)
}
