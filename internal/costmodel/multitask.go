package costmodel

import (
	"fmt"
	"math"

	"lqo/internal/ml"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// MultiTask is the unified transferable model line (MLMTF [66]): one
// shared tree-structured encoder is trained jointly for *two* tasks —
// latency prediction (cost model) and result-cardinality prediction —
// with separate small heads. The shared representation regularizes both
// heads, which is the paper's argument for multi-task pretraining across
// ML-enhanced DBMS components.
type MultiTask struct {
	EmbDim int // shared embedding width (default 16)
	Epochs int
	LR     float64
	// CardWeight scales the cardinality task's loss against the latency
	// task's (default 0.5).
	CardWeight float64

	combine  *ml.Net
	latHead  *ml.Net
	cardHead *ml.Net
}

// NewMultiTask returns an untrained multi-task model.
func NewMultiTask() *MultiTask {
	return &MultiTask{EmbDim: 16, Epochs: 60, LR: 1e-3, CardWeight: 0.5}
}

// Name implements Model.
func (m *MultiTask) Name() string { return "multitask" }

// Train implements Model. Cardinality labels come from the executed
// plans' root TrueCard annotations.
func (m *MultiTask) Train(ctx *Context) error {
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: multitask needs executed plans")
	}
	rng := newRNG(ctx.Seed + 19)
	in := NodeFeatureDim + 2*m.EmbDim
	var err error
	if m.combine, err = ml.NewNet([]int{in, 32, m.EmbDim}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.latHead, err = ml.NewNet([]int{m.EmbDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.cardHead, err = ml.NewNet([]int{m.EmbDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	opt := ml.NewAdam(m.LR, m.combine, m.latHead, m.cardHead)

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
				m.trainOne(tp.Plan, math.Log1p(tp.Latency), math.Log1p(tp.Plan.TrueCard))
			}
			opt.Step(end - s)
		}
	}
	return nil
}

// forwardNode mirrors TreeConv's recursive encoding with the shared trunk.
func (m *MultiTask) forwardNode(n *plan.Node) ([]float64, *treeCache) {
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

func (m *MultiTask) backwardNode(tc *treeCache, grad []float64) {
	gradIn := m.combine.Backward(tc.cache, grad)
	if tc.left != nil {
		m.backwardNode(tc.left, gradIn[NodeFeatureDim:NodeFeatureDim+m.EmbDim])
	}
	if tc.right != nil {
		m.backwardNode(tc.right, gradIn[NodeFeatureDim+m.EmbDim:])
	}
}

func (m *MultiTask) trainOne(p *plan.Node, latY, cardY float64) {
	emb, tc := m.forwardNode(p)
	lc := m.latHead.ForwardCache(emb)
	cc := m.cardHead.ForwardCache(emb)
	latDiff := lc.Output()[0] - latY
	cardDiff := cc.Output()[0] - cardY
	gradLat := m.latHead.Backward(lc, []float64{2 * latDiff})
	gradCard := m.cardHead.Backward(cc, []float64{2 * cardDiff * m.CardWeight})
	// Both task gradients flow into the shared trunk.
	grad := make([]float64, m.EmbDim)
	for i := range grad {
		grad[i] = gradLat[i] + gradCard[i]
	}
	m.backwardNode(tc, grad)
}

// Predict implements Model (the latency head).
func (m *MultiTask) Predict(q *query.Query, p *plan.Node) float64 {
	if m.latHead == nil {
		return 0
	}
	emb, _ := m.forwardNode(p)
	v := math.Expm1(m.latHead.Forward(emb)[0])
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
