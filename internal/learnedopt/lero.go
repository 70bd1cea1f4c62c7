package learnedopt

import (
	"context"
	"fmt"
	"math"
	"sort"

	"lqo/internal/costmodel"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// ScaledEstimator is Lero's candidate-generation knob [79]: it multiplies
// the base estimator's cardinality for k-table sub-queries by factor^(k−1),
// deliberately biasing the optimizer toward plans that would be optimal if
// intermediate results were systematically larger or smaller.
type ScaledEstimator struct {
	Base   opt.CardEstimator
	Factor float64
}

// Estimate implements opt.CardEstimator.
func (s *ScaledEstimator) Estimate(q *query.Query) float64 {
	base := s.Base.Estimate(q)
	k := len(q.Refs)
	if k <= 1 || s.Factor == 1 {
		return base
	}
	// Clamp before scaling: a NaN or negative base estimate would
	// otherwise poison every scaled candidate at once.
	return metrics.ClampCard(base) * math.Pow(s.Factor, float64(k-1))
}

// Lero is the learning-to-rank optimizer [79]: cardinality scaling
// generates candidate plans, and a pairwise comparator picks the plan
// winning the most predicted comparisons.
type Lero struct {
	// Factors are the cardinality scaling knobs (default {0.1,0.5,1,2,10}).
	Factors []float64
	// Comparator is the pairwise risk model.
	Comparator *PairwiseComparator

	ctx *Context
}

// NewLero returns a Lero optimizer with the paper's knob range
// (scaling factors spanning 10^±2).
func NewLero() *Lero {
	return &Lero{Factors: []float64{0.01, 0.1, 1, 10, 100}, Comparator: NewPairwiseComparator()}
}

// Name implements Optimizer.
func (l *Lero) Name() string { return "lero" }

// candidatePlans generates the scaled-estimator plan set for q, deduped.
func (l *Lero) candidatePlans(q *query.Query) ([]*plan.Node, error) {
	seen := map[string]bool{}
	var out []*plan.Node
	for _, f := range l.Factors {
		scaled := &ScaledEstimator{Base: l.ctx.Base.Est, Factor: f}
		p, err := l.ctx.Base.WithEstimator(scaled).OptimizeCtx(context.Background(), q)
		if err != nil {
			return nil, err
		}
		fp := p.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	return out, nil
}

// Train implements Optimizer: execute every candidate of every training
// query and fit the comparator on the resulting pairs.
func (l *Lero) Train(ctx *Context) error {
	l.ctx = ctx
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: lero needs a training workload")
	}
	var pairs []PlanPair
	for _, q := range ctx.Workload {
		plans, err := l.candidatePlans(q)
		if err != nil {
			return err
		}
		var kept []*plan.Node
		var lats []float64
		for _, p := range plans {
			lat, err := Measure(ctx.Ex, q, p)
			if err != nil {
				continue
			}
			kept = append(kept, p)
			lats = append(lats, lat)
		}
		pairs = append(pairs, PairsFromRuns(kept, lats)...)
	}
	return l.Comparator.Train(ctx.Cat, pairs, ctx.Seed+61)
}

// Candidates implements CandidateProvider. Predicted values are the
// comparator's scores (ordinal, not latencies).
func (l *Lero) Candidates(q *query.Query) ([]Candidate, error) {
	plans, err := l.candidatePlans(q)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(plans))
	for i, p := range plans {
		out[i] = Candidate{Plan: p, Predicted: l.Comparator.Score(p)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicted < out[j].Predicted })
	return out, nil
}

// Plan implements Optimizer.
func (l *Lero) Plan(q *query.Query) (*plan.Node, error) {
	plans, err := l.candidatePlans(q)
	if err != nil {
		return nil, err
	}
	best := l.Comparator.SelectBest(plans)
	if best == nil {
		return l.ctx.Base.OptimizeCtx(context.Background(), q)
	}
	return best, nil
}

// PointwiseLero is the E8 ablation arm: identical candidate generation,
// but selection by a pointwise latency regressor instead of the pairwise
// comparator — the design choice the Lero paper argues against.
type PointwiseLero struct {
	Lero
	Value costmodel.Model
}

// NewPointwiseLero returns the pointwise ablation of Lero.
func NewPointwiseLero() *PointwiseLero {
	return &PointwiseLero{Lero: *NewLero(), Value: costmodel.NewGBDTCost(false)}
}

// Name implements Optimizer.
func (l *PointwiseLero) Name() string { return "lero-pointwise" }

// Train implements Optimizer: fit the pointwise regressor on the same
// executed candidates Lero's comparator would see.
func (l *PointwiseLero) Train(ctx *Context) error {
	l.ctx = ctx
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: lero-pointwise needs a training workload")
	}
	var exp []costmodel.TrainPlan
	for _, q := range ctx.Workload {
		plans, err := l.candidatePlans(q)
		if err != nil {
			return err
		}
		for _, p := range plans {
			lat, err := Measure(ctx.Ex, q, p)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: lat})
		}
	}
	return l.Value.Train(&costmodel.Context{Cat: ctx.Cat, Stats: ctx.Stats, Plans: exp, Seed: ctx.Seed + 67})
}

// Plan implements Optimizer.
func (l *PointwiseLero) Plan(q *query.Query) (*plan.Node, error) {
	plans, err := l.candidatePlans(q)
	if err != nil {
		return nil, err
	}
	best := math.Inf(1)
	var pick *plan.Node
	for _, p := range plans {
		if v := l.Value.Predict(q, p); v < best {
			best, pick = v, p
		}
	}
	if pick == nil {
		return l.ctx.Base.OptimizeCtx(context.Background(), q)
	}
	return pick, nil
}
