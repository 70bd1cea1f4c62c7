package cardest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
)

// UAE [63] unifies data- and query-driven learning: an unsupervised
// auto-regressive data model is additionally supervised by the query
// workload. The workbench realizes the same idea as a residual
// architecture: the AR model (Naru) provides the base estimate and a GBDT
// trained on the workload learns the log-space correction the queries
// reveal — injecting query information the pure data model misses
// (notably join skew).
type UAE struct {
	base *Naru
	f    *Featurizer
	corr *ml.GBDT
	cat  *data.Catalog
}

// NewUAE returns an untrained UAE estimator.
func NewUAE() *UAE { return &UAE{base: NewNaru()} }

// Name implements Estimator.
func (e *UAE) Name() string { return "uae" }

// Train fits the data model, then the query-driven correction on its
// residuals.
func (e *UAE) Train(ctx *Context) error {
	e.cat = ctx.Cat
	if err := e.base.Train(ctx); err != nil {
		return err
	}
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: uae needs a training workload")
	}
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	xs := make([][]float64, len(ctx.Train))
	ys := make([]float64, len(ctx.Train))
	for i, s := range ctx.Train {
		xs[i] = e.f.Vector(s.Q)
		ys[i] = logCard(s.Card) - logCard(e.base.Estimate(s.Q))
	}
	e.corr = ml.FitGBDT(xs, ys, ml.GBDTOptions{Rounds: 40, LearnRate: 0.15, Tree: ml.TreeOptions{MaxDepth: 4}})
	return nil
}

// Estimate implements Estimator.
func (e *UAE) Estimate(q *query.Query) float64 {
	base := e.base.Estimate(q)
	if e.corr == nil {
		return base
	}
	corrected := unlogCard(logCard(base) + e.corr.Predict(e.f.Vector(q)))
	return clampCard(corrected, e.cat, q)
}

// GLUE [82] merges single-table cardinality estimates (from any method;
// here the SPN) into join estimates by learning per-join-template
// correction factors from the workload: the geometric mean of
// true/formula ratios for each canonical join-edge set.
type GLUE struct {
	single *SPNEstimator // also holds the catalog and statistics
	// template key → mean log correction
	corrections map[string]float64
	globalCorr  float64
}

// NewGLUE returns an untrained GLUE estimator.
func NewGLUE() *GLUE { return &GLUE{single: NewSPNEstimator()} }

// Name implements Estimator.
func (e *GLUE) Name() string { return "glue" }

func joinTemplate(q *query.Query) string {
	if len(q.Joins) == 0 {
		return ""
	}
	keys := make([]string, len(q.Joins))
	for i, j := range q.Joins {
		a := q.TableOf(j.LeftAlias) + "." + j.LeftCol
		b := q.TableOf(j.RightAlias) + "." + j.RightCol
		if a > b {
			a, b = b, a
		}
		keys[i] = a + "=" + b
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// Train fits the single-table model and the per-template corrections.
func (e *GLUE) Train(ctx *Context) error {
	if err := e.single.Train(ctx); err != nil {
		return err
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	gSum, gCnt := 0.0, 0.0
	for _, s := range ctx.Train {
		if len(s.Q.Joins) == 0 {
			continue
		}
		formula := e.formulaEstimate(s.Q)
		r := logCard(s.Card) - logCard(formula)
		key := joinTemplate(s.Q)
		sums[key] += r
		counts[key]++
		gSum += r
		gCnt++
	}
	e.corrections = make(map[string]float64, len(sums))
	for k, s := range sums {
		e.corrections[k] = s / counts[k]
	}
	if gCnt > 0 {
		e.globalCorr = gSum / gCnt
	}
	return nil
}

func (e *GLUE) formulaEstimate(q *query.Query) float64 {
	return joinFormula(e.single.cs, q, e.single.sel)
}

// Estimate implements Estimator.
func (e *GLUE) Estimate(q *query.Query) float64 {
	est := e.formulaEstimate(q)
	if len(q.Joins) > 0 {
		corr, ok := e.corrections[joinTemplate(q)]
		if !ok {
			corr = e.globalCorr
		}
		est = unlogCard(logCard(est) + corr)
	}
	return clampCard(est, e.single.cat, q)
}

// ALECE [30] connects query features to learned *data aggregations* via
// attention. The workbench's attention-lite variant summarizes every
// column into a fixed vector (down-sampled histogram + scale features),
// attends over the summaries of the columns the query references (softmax
// over learned relevance scores), and feeds [query vector ‖ context] to an
// MLP — retaining the data-encoder/query-analyzer split at laptop scale.
type ALECE struct {
	f         *Featurizer
	summaries [][]float64 // per featurizer column index
	scorer    *ml.Net     // relevance score per column summary (attention)
	head      *ml.Net
	cat       *data.Catalog
}

// ALECE's summary width and training schedule.
const (
	aleceSummaryDim = 10 // per-column summary width
	aleceEpochs     = 50
	aleceLR         = 1e-3
)

// NewALECE returns an untrained ALECE estimator.
func NewALECE() *ALECE { return &ALECE{} }

// Name implements Estimator.
func (e *ALECE) Name() string { return "alece" }

// Train builds column summaries (data encoder) and fits the attention
// scorer and prediction head (query analyzer) jointly.
func (e *ALECE) Train(ctx *Context) error {
	if len(ctx.Train) == 0 {
		return fmt.Errorf("cardest: alece needs a training workload")
	}
	e.cat = ctx.Cat
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	e.summaries = make([][]float64, len(e.f.Columns))
	for i, k := range e.f.Columns {
		e.summaries[i] = e.summarize(ctx, k)
	}
	rng := newRNG(ctx.Seed + 606)
	scorer, err := ml.NewNet([]int{aleceSummaryDim, 8, 1}, ml.Tanh, rng)
	if err != nil {
		return err
	}
	e.scorer = scorer
	head, err := ml.NewNet([]int{e.f.Dim() + aleceSummaryDim, 48, 1}, ml.ReLU, rng)
	if err != nil {
		return err
	}
	e.head = head
	opt := ml.NewAdam(aleceLR, e.scorer, e.head)

	xs := make([][]float64, len(ctx.Train))
	cols := make([][]int, len(ctx.Train))
	ys := make([]float64, len(ctx.Train))
	for i, s := range ctx.Train {
		xs[i] = e.f.Vector(s.Q)
		cols[i] = e.referencedCols(s.Q)
		ys[i] = logCard(s.Card)
	}
	ml.Minibatches(rng, len(xs), aleceEpochs, 16, func(i int) {
		e.trainOne(xs[i], cols[i], ys[i])
	}, opt.Step)
	return nil
}

func (e *ALECE) summarize(ctx *Context, k ColKey) []float64 {
	out := make([]float64, aleceSummaryDim)
	ts := ctx.Stats.Tables[k.Table]
	if ts == nil {
		return out
	}
	cs := ts.Cols[k.Column]
	if cs == nil {
		return out
	}
	// First 8 slots: histogram mass down-sampled to 8 regions.
	h := cs.Hist
	if h.Buckets() > 0 && h.Total > 0 {
		for b := 0; b < h.Buckets(); b++ {
			slot := b * 8 / h.Buckets()
			out[slot] += h.Counts[b] / h.Total
		}
	}
	// Scale features.
	out[8] = math.Log1p(cs.Distinct) / 20
	out[9] = math.Log1p(cs.Rows) / 20
	return out
}

func (e *ALECE) referencedCols(q *query.Query) []int {
	seen := map[int]bool{}
	var out []int
	for _, p := range q.Preds {
		for i, k := range e.f.Columns {
			if k.Table == q.TableOf(p.Alias) && k.Column == p.Column && !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	sort.Ints(out)
	return out
}

// attend computes softmax-weighted context over the referenced columns'
// summaries; returns context, weights and the scorer caches for backprop.
func (e *ALECE) attend(cols []int) ([]float64, []float64, []ml.Cache) {
	ctxVec := make([]float64, aleceSummaryDim)
	if len(cols) == 0 {
		return ctxVec, nil, nil
	}
	logits := make([]float64, len(cols))
	caches := make([]ml.Cache, len(cols))
	for i, ci := range cols {
		c := e.scorer.ForwardCache(e.summaries[ci])
		caches[i] = c
		logits[i] = c.Output()[0]
	}
	w := ml.Softmax(logits, nil)
	for i, ci := range cols {
		for d := 0; d < aleceSummaryDim; d++ {
			ctxVec[d] += w[i] * e.summaries[ci][d]
		}
	}
	return ctxVec, w, caches
}

func (e *ALECE) trainOne(x []float64, cols []int, y float64) {
	ctxVec, w, caches := e.attend(cols)
	in := append(append([]float64{}, x...), ctxVec...)
	hc := e.head.ForwardCache(in)
	diff := hc.Output()[0] - y
	gradIn := e.head.Backward(hc, []float64{2 * diff})
	gradCtx := gradIn[len(x):]
	// Backprop through the softmax attention into the scorer.
	if len(cols) == 0 {
		return
	}
	// dL/dw_i = gradCtx · summary_i ; dL/dlogit_i via softmax Jacobian.
	dw := make([]float64, len(cols))
	for i, ci := range cols {
		s := 0.0
		for d := 0; d < aleceSummaryDim; d++ {
			s += gradCtx[d] * e.summaries[ci][d]
		}
		dw[i] = s
	}
	dot := 0.0
	for i := range dw {
		dot += dw[i] * w[i]
	}
	for i := range cols {
		gl := w[i] * (dw[i] - dot)
		e.scorer.Backward(caches[i], []float64{gl})
	}
}

// Estimate implements Estimator.
func (e *ALECE) Estimate(q *query.Query) float64 {
	if e.head == nil {
		return 0
	}
	ctxVec, _, _ := e.attend(e.referencedCols(q))
	in := append(e.f.Vector(q), ctxVec...)
	return clampCard(unlogCard(e.head.Forward(in)[0]), e.cat, q)
}
