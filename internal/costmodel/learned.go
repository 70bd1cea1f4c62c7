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
	v := math.Expm1(m.model.Predict(m.f.Vector(p)))
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// MLPCost is the fully connected plan-cost network of [39]'s flat variant.
type MLPCost struct {
	Epochs int
	LR     float64

	f   *PlanFeaturizer
	net *ml.Net
}

// NewMLPCost returns an untrained MLP cost model.
func NewMLPCost() *MLPCost { return &MLPCost{Epochs: 80, LR: 1e-3} }

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
	ml.TrainRegression(m.net, xs, ys, m.Epochs, 16, m.LR, rng)
	return nil
}

// Predict implements Model.
func (m *MLPCost) Predict(q *query.Query, p *plan.Node) float64 {
	if m.net == nil {
		return 0
	}
	v := math.Expm1(m.net.Forward(m.f.Vector(p))[0])
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}

// TreeConv is the recursive tree-structured cost model of the
// TreeConv/Tree-LSTM line [39, 51, 41]: each node's embedding is computed
// by a shared combiner network over [node features ‖ left child embedding
// ‖ right child embedding] (zeros at leaves), and a head network maps the
// root embedding to log-latency. Gradients flow through the recursion.
type TreeConv struct {
	EmbDim int // embedding width (default 16)
	Epochs int
	LR     float64

	combine *ml.Net
	head    *ml.Net
}

// NewTreeConv returns an untrained tree-structured cost model.
func NewTreeConv() *TreeConv { return &TreeConv{EmbDim: 16, Epochs: 60, LR: 1e-3} }

// Name implements Model.
func (m *TreeConv) Name() string { return "treeconv" }

// Train implements Model.
func (m *TreeConv) Train(ctx *Context) error {
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: treeconv needs executed plans")
	}
	rng := newRNG(ctx.Seed + 13)
	in := NodeFeatureDim + 2*m.EmbDim
	var err error
	if m.combine, err = ml.NewNet([]int{in, 32, m.EmbDim}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.head, err = ml.NewNet([]int{m.EmbDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	opt := ml.NewAdam(m.LR, m.combine, m.head)

	idx := make([]int, len(plans))
	for i := range idx {
		idx[i] = i
	}
	const batch = 8
	for e := 0; e < m.Epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for s := 0; s < len(idx); s += batch {
			end := s + batch
			if end > len(idx) {
				end = len(idx)
			}
			for _, i := range idx[s:end] {
				tp := plans[i]
				m.trainOne(tp.Plan, math.Log1p(tp.Latency))
			}
			opt.Step(end - s)
		}
	}
	return nil
}

// treeCache stores the forward state of one plan node for backprop.
type treeCache struct {
	cache       ml.Cache
	left, right *treeCache
}

func (m *TreeConv) forwardNode(n *plan.Node) ([]float64, *treeCache) {
	tc := &treeCache{}
	leftEmb := make([]float64, m.EmbDim)
	rightEmb := make([]float64, m.EmbDim)
	if n.Left != nil {
		leftEmb, tc.left = m.forwardNode(n.Left)
	}
	if n.Right != nil {
		rightEmb, tc.right = m.forwardNode(n.Right)
	}
	in := make([]float64, 0, NodeFeatureDim+2*m.EmbDim)
	in = append(in, NodeFeatures(n)...)
	in = append(in, leftEmb...)
	in = append(in, rightEmb...)
	tc.cache = m.combine.ForwardCache(in)
	return tc.cache.Output(), tc
}

func (m *TreeConv) backwardNode(tc *treeCache, grad []float64) {
	gradIn := m.combine.Backward(tc.cache, grad)
	if tc.left != nil {
		m.backwardNode(tc.left, gradIn[NodeFeatureDim:NodeFeatureDim+m.EmbDim])
	}
	if tc.right != nil {
		m.backwardNode(tc.right, gradIn[NodeFeatureDim+m.EmbDim:])
	}
}

func (m *TreeConv) trainOne(p *plan.Node, y float64) {
	emb, tc := m.forwardNode(p)
	hc := m.head.ForwardCache(emb)
	diff := hc.Output()[0] - y
	gradEmb := m.head.Backward(hc, []float64{2 * diff})
	m.backwardNode(tc, gradEmb)
}

// Predict implements Model.
func (m *TreeConv) Predict(q *query.Query, p *plan.Node) float64 {
	if m.head == nil {
		return 0
	}
	emb, _ := m.forwardNode(p)
	v := math.Expm1(m.head.Forward(emb)[0])
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
