package learnedopt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lqo/internal/costmodel"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// HyperQO applies the ensemble method to eliminate regressions before
// execution [72]: k independently seeded value models predict each
// candidate's latency; candidates whose predictions disagree (high
// variance) are filtered out, and the best mean among the stable
// remainder is selected. (The paper uses a multi-head LSTM; the workbench
// uses an ensemble of tree models with the same variance-filter logic.)
type HyperQO struct {
	models []costmodel.Model
	lc     *Context
}

// HyperQO's ensemble size, and the coefficient of variation (in log
// space) of a candidate's predictions above which it is filtered.
const (
	hyperQOK            = 5
	hyperQOVarThreshold = 0.25
)

// NewHyperQO returns a HyperQO-style optimizer.
func NewHyperQO() *HyperQO { return &HyperQO{} }

// Name implements Optimizer.
func (h *HyperQO) Name() string { return "hyperqo" }

// Train implements Optimizer: collect hint-steered experience once,
// train each ensemble member with a different seed.
func (h *HyperQO) Train(ctx context.Context, lc *Context) error {
	h.lc = lc
	if len(lc.Workload) == 0 {
		return fmt.Errorf("learnedopt: hyperqo needs a training workload")
	}
	var exp []costmodel.TrainPlan
	for _, q := range lc.Workload {
		plans, err := lc.Base.CandidatePlans(ctx, q, plan.BaoHintSets())
		if err != nil {
			return err
		}
		for _, p := range plans {
			lat, err := Measure(ctx, lc.Ex, q, p)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: lat})
		}
	}
	h.models = h.models[:0]
	rng := rand.New(rand.NewSource(lc.Seed + 79))
	for k := 0; k < hyperQOK; k++ {
		// Bagging: each member sees a bootstrap resample, giving the
		// ensemble genuine predictive variance on unfamiliar plans.
		boot := make([]costmodel.TrainPlan, len(exp))
		for i := range boot {
			boot[i] = exp[rng.Intn(len(exp))]
		}
		m := costmodel.NewGBDTCost(false)
		if err := m.Train(&costmodel.Context{Cat: lc.Cat, Stats: lc.Stats, Plans: boot, Seed: lc.Seed + int64(100*k) + 79}); err != nil {
			return err
		}
		h.models = append(h.models, m)
	}
	return nil
}

// predict returns the ensemble's log-space mean and coefficient of
// variation for one plan.
func (h *HyperQO) predict(q *query.Query, p *plan.Node) (mean, cv float64) {
	var logs []float64
	for _, m := range h.models {
		logs = append(logs, math.Log1p(m.Predict(q, p)))
	}
	s, ss := 0.0, 0.0
	for _, v := range logs {
		s += v
		ss += v * v
	}
	n := float64(len(logs))
	mu := s / n
	varr := ss/n - mu*mu
	if varr < 0 {
		varr = 0
	}
	if mu == 0 {
		return 0, math.Inf(1)
	}
	return mu, math.Sqrt(varr) / math.Abs(mu)
}

// Candidates implements CandidateProvider (mean predictions; unstable
// candidates keep their mean but are dropped by Plan).
func (h *HyperQO) Candidates(ctx context.Context, q *query.Query) ([]Candidate, error) {
	plans, err := h.lc.Base.CandidatePlans(ctx, q, plan.BaoHintSets())
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(plans))
	for i, p := range plans {
		mu, _ := h.predict(q, p)
		out[i] = Candidate{Plan: p, Predicted: math.Expm1(mu)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicted < out[j].Predicted })
	return out, nil
}

// Plan implements Optimizer: variance-filter, then best mean — but only
// if that beats the ensemble's prediction for the native plan; otherwise
// the cost-based plan runs. This is HyperQO's defining hybrid rule:
// "cost-based or learning-based" is decided per query.
func (h *HyperQO) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	plans, err := h.lc.Base.CandidatePlans(ctx, q, plan.BaoHintSets())
	if err != nil {
		return nil, err
	}
	native, err := h.lc.Base.OptimizeCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	nativeMu, _ := h.predict(q, native)
	best := math.Inf(1)
	var pick *plan.Node
	for _, p := range plans {
		mu, cv := h.predict(q, p)
		if cv > hyperQOVarThreshold {
			continue
		}
		if mu < best {
			best, pick = mu, p
		}
	}
	if pick == nil || best >= nativeMu {
		return native, nil
	}
	return pick, nil
}

// Eraser eliminates performance regressions of any learned optimizer [62]
// as a plugin: it intercepts the inner optimizer's candidate set and
// applies the paper's two stages — (1) a coarse-grained filter removing
// plans whose structural features never appeared in validation (the model
// cannot be trusted on them), and (2) plan clustering by prediction
// quality, selecting from the cluster whose validation error is low. If
// nothing survives, the native optimizer's plan runs.
type Eraser struct {
	// DisableClustering keeps only stage 1 (the E8 ablation knob).
	DisableClustering bool
	// InnerTrained skips training the inner optimizer — set it when
	// wrapping an already-deployed model (Eraser is a plugin; it must not
	// require retraining what it protects).
	InnerTrained bool

	// inner is the learned optimizer being protected. It must implement
	// CandidateProvider.
	inner         Optimizer
	lc            *Context
	seenStructure map[string]bool
	clusterErr    map[string][]float64 // structure key → validation error ratios
}

const (
	// eraserMaxClusterError is the geometric-mean validation error
	// (predicted vs. true latency ratio) above which a cluster is
	// distrusted.
	eraserMaxClusterError = 2.0
	// eraserMargin is the fraction of the native plan's pessimistic score
	// a learned plan must stay below to be chosen: predicted at least 8%
	// better.
	eraserMargin = 0.92
)

// NewEraser wraps inner with regression elimination.
func NewEraser(inner Optimizer) *Eraser { return &Eraser{inner: inner} }

// Name implements Optimizer.
func (e *Eraser) Name() string { return "eraser+" + e.inner.Name() }

// Train implements Optimizer: train the inner optimizer, then validate it
// on the training workload to learn which plan structures its model can
// be trusted on.
func (e *Eraser) Train(ctx context.Context, lc *Context) error {
	e.lc = lc
	if !e.InnerTrained {
		if err := e.inner.Train(ctx, lc); err != nil {
			return err
		}
	}
	cp, ok := e.inner.(CandidateProvider)
	if !ok {
		return fmt.Errorf("learnedopt: eraser requires a CandidateProvider inner optimizer")
	}
	e.seenStructure = map[string]bool{}
	e.clusterErr = map[string][]float64{}
	for _, q := range lc.Workload {
		if err := ctx.Err(); err != nil {
			return err
		}
		cands, err := cp.Candidates(ctx, q)
		if err != nil {
			continue
		}
		for _, c := range cands {
			key := c.Plan.StructureKey()
			e.seenStructure[key] = true
			lat, err := Measure(ctx, lc.Ex, q, c.Plan)
			if err != nil {
				continue
			}
			ratio := errRatio(c.Predicted, lat)
			e.clusterErr[key] = append(e.clusterErr[key], ratio)
		}
	}
	return nil
}

// errRatio is max(pred/true, true/pred) with floors — the prediction-
// quality measure clusters are judged by.
func errRatio(pred, truth float64) float64 {
	if pred < 1 {
		pred = 1
	}
	if truth < 1 {
		truth = 1
	}
	if pred > truth {
		return pred / truth
	}
	return truth / pred
}

// Plan implements Optimizer.
func (e *Eraser) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	cands, err := e.inner.(CandidateProvider).Candidates(ctx, q)
	if err != nil {
		return e.lc.Base.OptimizeCtx(ctx, q)
	}
	// Stage 1: coarse filter — drop plans with unseen structure.
	var survivors []Candidate
	for _, c := range cands {
		if e.seenStructure[c.Plan.StructureKey()] {
			survivors = append(survivors, c)
		}
	}
	native, err := e.lc.Base.OptimizeCtx(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(survivors) == 0 {
		return native, nil
	}
	// Stage 2: plan clustering by prediction quality. Each candidate's
	// predicted latency is inflated by its structure-cluster's observed
	// validation error (pessimistic scoring), so plans the model predicts
	// poorly only win when predicted better by a wide margin; clusters
	// beyond eraserMaxClusterError (2) are dropped outright. The native
	// plan anchors the comparison: a learned plan must score below
	// eraserMargin (0.92) × the native candidate's pessimistic score, 8%
	// better, or the native plan runs.
	nativeFP := native.Fingerprint()
	bestScore := math.Inf(1)
	nativeScore := math.Inf(1)
	var best *plan.Node
	for _, c := range survivors {
		score := c.Predicted
		if !e.DisableClustering {
			errs := e.clusterErr[c.Plan.StructureKey()]
			if len(errs) == 0 {
				continue // no validation error: the cluster is not trusted
			}
			g := metrics.GeoMean(errs)
			if g > eraserMaxClusterError {
				continue
			}
			score *= g
		}
		if c.Plan.Fingerprint() == nativeFP && score < nativeScore {
			nativeScore = score
		}
		if score < bestScore {
			bestScore, best = score, c.Plan
		}
	}
	// No validated opinion on the native plan means the model cannot be
	// compared against it — run native. Otherwise the learned plan must
	// beat the native candidate's pessimistic score by a clear margin.
	if best == nil || math.IsInf(nativeScore, 1) || bestScore > nativeScore*eraserMargin {
		return native, nil
	}
	return best, nil
}
