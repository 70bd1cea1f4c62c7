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
	enc      treeEncoder
	latHead  *ml.Net
	cardHead *ml.Net
}

// multiTaskCardWeight scales the cardinality task's loss against the
// latency task's.
const multiTaskCardWeight = 0.5

// NewMultiTask returns an untrained multi-task model.
func NewMultiTask() *MultiTask { return &MultiTask{} }

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
	var err error
	if m.enc, err = newTreeEncoder(rng); err != nil {
		return err
	}
	if m.latHead, err = ml.NewNet([]int{embDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.cardHead, err = ml.NewNet([]int{embDim, 16, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	opt := ml.NewAdam(learnRate, m.enc.combine, m.latHead, m.cardHead)
	ml.Minibatches(rng, len(plans), treeEpochs, 8, func(i int) {
		tp := plans[i]
		m.trainOne(tp.Plan, math.Log1p(tp.Latency), math.Log1p(tp.Plan.TrueCard))
	}, opt.Step)
	return nil
}

func (m *MultiTask) trainOne(p *plan.Node, latY, cardY float64) {
	emb, tc := m.enc.forward(p)
	lc := m.latHead.ForwardCache(emb)
	cc := m.cardHead.ForwardCache(emb)
	latDiff := lc.Output()[0] - latY
	cardDiff := cc.Output()[0] - cardY
	gradLat := m.latHead.Backward(lc, []float64{2 * latDiff})
	gradCard := m.cardHead.Backward(cc, []float64{2 * cardDiff * multiTaskCardWeight})
	// Both task gradients flow into the shared trunk.
	grad := make([]float64, embDim)
	for i := range grad {
		grad[i] = gradLat[i] + gradCard[i]
	}
	m.enc.backward(tc, grad)
}

// Predict implements Model (the latency head).
func (m *MultiTask) Predict(q *query.Query, p *plan.Node) float64 {
	if m.latHead == nil {
		return 0
	}
	emb, _ := m.enc.forward(p)
	return latencyOf(m.latHead.Forward(emb)[0])
}
