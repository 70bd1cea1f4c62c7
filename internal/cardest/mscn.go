package cardest

import (
	"fmt"
	"math/rand"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
)

// MSCN is the multi-set convolutional network of Kipf et al. [23]: three
// per-element MLP "set modules" (tables, joins, predicates) whose outputs
// are average-pooled, concatenated and fed to an output MLP predicting
// log-cardinality. Gradients flow through the pooling into the set
// modules, as in the original architecture.
type MSCN struct {
	// NoJoinModule drops the join set module entirely (ablation E8: how
	// much of MSCN's accuracy comes from seeing join structure).
	NoJoinModule bool

	name string
	// maskProb, when positive, drops predicate/join set elements during
	// training with this probability — the Robust-MSCN query-masking
	// technique [45].
	maskProb float64
	f        *Featurizer
	setT     *ml.Net
	setJ     *ml.Net
	setP     *ml.Net
	out      *ml.Net
	cat      *data.Catalog
}

// MSCN's shape and training schedule.
const (
	mscnHiddenSet = 16 // set-module output width
	mscnHiddenOut = 32 // output-network hidden width
	mscnEpochs    = 50
	mscnLR        = 1e-3
)

// NewMSCN returns an untrained MSCN with the paper's default shape.
func NewMSCN() *MSCN { return &MSCN{name: "mscn"} }

// NewRobustMSCN returns an MSCN trained with query masking [45]: during
// training a fifth of join/predicate set elements are dropped at random,
// so the model cannot lean on features that may be absent or novel when
// the workload shifts. The masking is a regularizer — its benefit needs
// training volume (see E8's workload-shift rows and EXPERIMENTS.md).
func NewRobustMSCN() *MSCN { return &MSCN{name: "robust-mscn", maskProb: 0.2} }

// Name implements Estimator.
func (m *MSCN) Name() string { return m.name }

// Train fits the set modules and output network jointly with Adam.
func (m *MSCN) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: %s needs a training workload", m.name)
	}
	m.cat = ctx.Cat
	m.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	rng := rand.New(rand.NewSource(ctx.Seed + 202))
	const h = mscnHiddenSet
	var err error
	if m.setT, err = ml.NewNet([]int{m.f.TableElemDim(), h, h}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.setJ, err = ml.NewNet([]int{m.f.JoinElemDim(), h, h}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.setP, err = ml.NewNet([]int{m.f.PredElemDim(), h, h}, ml.ReLU, rng); err != nil {
		return err
	}
	if m.out, err = ml.NewNet([]int{3 * h, mscnHiddenOut, 1}, ml.ReLU, rng); err != nil {
		return err
	}
	opt := ml.NewAdam(mscnLR, m.setT, m.setJ, m.setP, m.out)

	type sample struct {
		tables, joins, preds [][]float64
		y                    float64
	}
	samples := make([]sample, len(ctx.Train))
	for i, s := range ctx.Train {
		t, j, p := m.f.SetElements(s.Q)
		if m.NoJoinModule {
			j = nil
		}
		samples[i] = sample{t, j, p, logCard(s.Card)}
	}
	ml.Minibatches(rng, len(samples), mscnEpochs, 16, func(i int) {
		sm := samples[i]
		joins, preds := sm.joins, sm.preds
		if m.maskProb > 0 {
			joins = maskElements(joins, m.maskProb, rng)
			preds = maskElements(preds, m.maskProb, rng)
		}
		m.trainOne(sm.tables, joins, preds, sm.y)
	}, opt.Step)
	return nil
}

func maskElements(els [][]float64, p float64, rng *rand.Rand) [][]float64 {
	out := els[:0:0]
	for _, e := range els {
		if rng.Float64() >= p {
			out = append(out, e)
		}
	}
	return out
}

// poolForward runs a set module over its elements, returning the pooled
// vector and the per-element caches for backprop.
func poolForward(net *ml.Net, els [][]float64, width int) ([]float64, []ml.Cache) {
	pooled := make([]float64, width)
	if len(els) == 0 {
		return pooled, nil
	}
	caches := make([]ml.Cache, len(els))
	for i, e := range els {
		c := net.ForwardCache(e)
		caches[i] = c
		for k, v := range c.Output() {
			pooled[k] += v
		}
	}
	inv := 1 / float64(len(els))
	for k := range pooled {
		pooled[k] *= inv
	}
	return pooled, caches
}

func poolBackward(net *ml.Net, caches []ml.Cache, grad []float64) {
	if len(caches) == 0 {
		return
	}
	g := make([]float64, len(grad))
	inv := 1 / float64(len(caches))
	for k, v := range grad {
		g[k] = v * inv
	}
	for _, c := range caches {
		net.Backward(c, g)
	}
}

func (m *MSCN) trainOne(tables, joins, preds [][]float64, y float64) {
	const h = mscnHiddenSet
	pt, ct := poolForward(m.setT, tables, h)
	pj, cj := poolForward(m.setJ, joins, h)
	pp, cp := poolForward(m.setP, preds, h)
	in := make([]float64, 0, 3*h)
	in = append(append(append(in, pt...), pj...), pp...)
	oc := m.out.ForwardCache(in)
	diff := oc.Output()[0] - y
	gradIn := m.out.Backward(oc, []float64{2 * diff})
	poolBackward(m.setT, ct, gradIn[0:h])
	poolBackward(m.setJ, cj, gradIn[h:2*h])
	poolBackward(m.setP, cp, gradIn[2*h:3*h])
}

// Estimate implements Estimator.
func (m *MSCN) Estimate(q *query.Query) float64 {
	if m.out == nil {
		return 0
	}
	t, j, p := m.f.SetElements(q)
	if m.NoJoinModule {
		j = nil
	}
	const h = mscnHiddenSet
	pt, _ := poolForward(m.setT, t, h)
	pj, _ := poolForward(m.setJ, j, h)
	pp, _ := poolForward(m.setP, p, h)
	in := make([]float64, 0, 3*h)
	in = append(append(append(in, pt...), pj...), pp...)
	return clampCard(unlogCard(m.out.Forward(in)[0]), m.cat, q)
}
