package costmodel

import (
	"fmt"
	"math"
	"math/rand"

	"lqo/internal/ml"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// newRNG returns a deterministic RNG for the given seed.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// GBDTCost regresses log-latency on flat plan features with boosted trees.
// With zeroShot=true it restricts itself to transferable features, giving
// the zero-shot cost model of [16].
type GBDTCost struct {
	zeroShot bool
	f        *PlanFeaturizer
	model    *ml.GBDT
}

// NewGBDTCost returns an untrained flat-feature cost model.
func NewGBDTCost(zeroShot bool) *GBDTCost { return &GBDTCost{zeroShot: zeroShot} }

// Name implements Model.
func (m *GBDTCost) Name() string {
	if m.zeroShot {
		return "zeroshot"
	}
	return "gbdt-cost"
}

// Train implements Model.
func (m *GBDTCost) Train(ctx *Context) error {
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: %s needs executed plans", m.Name())
	}
	m.f = NewPlanFeaturizer(ctx.Cat, m.zeroShot)
	xs := make([][]float64, len(plans))
	ys := make([]float64, len(plans))
	for i, tp := range plans {
		xs[i] = m.f.Vector(tp.Plan)
		ys[i] = math.Log1p(tp.Latency)
	}
	m.model = ml.FitGBDT(xs, ys, ml.GBDTOptions{Rounds: 60, LearnRate: 0.15, Tree: ml.TreeOptions{MaxDepth: 5}})
	return nil
}

// Predict implements Model.
func (m *GBDTCost) Predict(q *query.Query, p *plan.Node) float64 {
	if m.model == nil {
		return 0
	}
	return latencyOf(m.model.Predict(m.f.Vector(p)))
}

// The learned networks' shared training constants.
const (
	learnRate  = 1e-3
	embDim     = 16 // tree embedding width (TreeConv, MultiTask)
	treeEpochs = 60 // TreeConv's default and MultiTask's epoch count
)

// latencyOf maps a model's log1p-latency output back to work units,
// never negative or NaN as Model.Predict promises.
func latencyOf(logLat float64) float64 {
	v := math.Expm1(logLat)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// MLPCost is the fully connected plan-cost network of [39]'s flat variant.
type MLPCost struct {
	f   *PlanFeaturizer
	net *ml.Net
}

// NewMLPCost returns an untrained MLP cost model.
func NewMLPCost() *MLPCost { return &MLPCost{} }

// Name implements Model.
func (m *MLPCost) Name() string { return "mlp-cost" }

// Train implements Model.
func (m *MLPCost) Train(ctx *Context) error {
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: mlp-cost needs executed plans")
	}
	m.f = NewPlanFeaturizer(ctx.Cat, false)
	rng := newRNG(ctx.Seed + 11)
	net, err := ml.NewNet([]int{m.f.Dim(), 48, 24, 1}, ml.ReLU, rng)
	if err != nil {
		return err
	}
	m.net = net
	xs := make([][]float64, len(plans))
	ys := make([]float64, len(plans))
	for i, tp := range plans {
		xs[i] = m.f.Vector(tp.Plan)
		ys[i] = math.Log1p(tp.Latency)
	}
	ml.TrainRegression(m.net, xs, ys, 80, 16, learnRate, rng)
	return nil
}

// Predict implements Model.
func (m *MLPCost) Predict(q *query.Query, p *plan.Node) float64 {
	if m.net == nil {
		return 0
	}
	return latencyOf(m.net.Forward(m.f.Vector(p))[0])
}

// treeEncoder is the recursive plan-tree encoder TreeConv and MultiTask
// share: each node's embedding is a combiner network over [node features
// ‖ left child embedding ‖ right child embedding], zeros standing in for
// a missing child. Gradients flow back through the recursion.
type treeEncoder struct {
	combine *ml.Net
}

// newTreeEncoder returns an untrained encoder with embDim-wide
// embeddings.
func newTreeEncoder(rng *rand.Rand) (treeEncoder, error) {
	combine, err := ml.NewNet([]int{NodeFeatureDim + 2*embDim, 32, embDim}, ml.ReLU, rng)
	return treeEncoder{combine}, err
}

// treeCache stores the forward state of one plan node for backprop.
type treeCache struct {
	cache       ml.Cache
	left, right *treeCache
}

// forward returns n's embedding and the state backward needs.
func (e treeEncoder) forward(n *plan.Node) ([]float64, *treeCache) {
	tc := &treeCache{}
	leftEmb := make([]float64, embDim)
	rightEmb := make([]float64, embDim)
	if n.Left != nil {
		leftEmb, tc.left = e.forward(n.Left)
	}
	if n.Right != nil {
		rightEmb, tc.right = e.forward(n.Right)
	}
	in := make([]float64, 0, NodeFeatureDim+2*embDim)
	in = append(in, NodeFeatures(n)...)
	in = append(in, leftEmb...)
	in = append(in, rightEmb...)
	tc.cache = e.combine.ForwardCache(in)
	return tc.cache.Output(), tc
}

// backward accumulates the combiner's gradients for the upstream
// gradient grad on the embedding forward returned with tc.
func (e treeEncoder) backward(tc *treeCache, grad []float64) {
	gradIn := e.combine.Backward(tc.cache, grad)
	if tc.left != nil {
		e.backward(tc.left, gradIn[NodeFeatureDim:NodeFeatureDim+embDim])
	}
	if tc.right != nil {
		e.backward(tc.right, gradIn[NodeFeatureDim+embDim:])
	}
}

// TreeConv is the recursive tree-structured cost model of the
// TreeConv/Tree-LSTM line [39, 51, 41]: the tree encoder embeds the plan
// and a head network maps the root embedding to log-latency.
type TreeConv struct {
	// Epochs is the training schedule (default 60; Bao's value model
	// trains 120).
	Epochs int

	enc  treeEncoder
	head *ml.Net
}

// NewTreeConv returns an untrained tree-structured cost model.
func NewTreeConv() *TreeConv { return &TreeConv{Epochs: treeEpochs} }

// Name implements Model.
func (m *TreeConv) Name() string { return "treeconv" }

// Train implements Model.
func (m *TreeConv) Train(ctx *Context) error {
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: treeconv needs executed plans")
	}
	rng := newRNG(ctx.Seed + 13)
	var err error
	if m.enc, err = newTreeEncoder(rng); err != nil {
		return err
	}
	if m.head, err = ml.NewNet([]int{embDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	opt := ml.NewAdam(learnRate, m.enc.combine, m.head)
	ml.Minibatches(rng, len(plans), m.Epochs, 8, func(i int) {
		m.trainOne(plans[i].Plan, math.Log1p(plans[i].Latency))
	}, opt.Step)
	return nil
}

func (m *TreeConv) trainOne(p *plan.Node, y float64) {
	emb, tc := m.enc.forward(p)
	hc := m.head.ForwardCache(emb)
	diff := hc.Output()[0] - y
	gradEmb := m.head.Backward(hc, []float64{2 * diff})
	m.enc.backward(tc, gradEmb)
}

// Predict implements Model.
func (m *TreeConv) Predict(q *query.Query, p *plan.Node) float64 {
	if m.head == nil {
		return 0
	}
	emb, _ := m.enc.forward(p)
	return latencyOf(m.head.Forward(emb)[0])
}
