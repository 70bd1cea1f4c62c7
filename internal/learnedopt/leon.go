package learnedopt

import (
	"context"
	"fmt"
	"sort"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// LEON keeps the traditional optimizer's dynamic-programming enumeration
// and replaces only plan *selection* with a learned pairwise comparison
// model [4]. The workbench variant gathers the DP plans produced under
// every operator-class configuration (the DP enumeration reached under
// each hint set) plus the greedy plan, and lets the comparator rank them —
// preserving LEON's "ML-aided, DP-grounded" structure.
type LEON struct {
	// Comparator is the pairwise selection model.
	Comparator *PairwiseComparator

	ctx *Context
}

// NewLEON returns a LEON optimizer.
func NewLEON() *LEON { return &LEON{Comparator: NewPairwiseComparator()} }

// Name implements Optimizer.
func (l *LEON) Name() string { return "leon" }

func (l *LEON) candidatePlans(q *query.Query) ([]*plan.Node, error) {
	plans, err := l.ctx.Base.CandidatePlans(context.Background(), q, plan.BaoHintSets())
	if err != nil {
		return nil, err
	}
	if g, err := l.ctx.Base.OptimizeGreedyCtx(context.Background(), q); err == nil {
		dup := false
		for _, p := range plans {
			if p.Fingerprint() == g.Fingerprint() {
				dup = true
				break
			}
		}
		if !dup {
			plans = append(plans, g)
		}
	}
	return plans, nil
}

// Train implements Optimizer.
func (l *LEON) Train(ctx *Context) error {
	l.ctx = ctx
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: leon needs a training workload")
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
	return l.Comparator.Train(ctx.Cat, pairs, ctx.Seed+73)
}

// Candidates implements CandidateProvider.
func (l *LEON) Candidates(q *query.Query) ([]Candidate, error) {
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
func (l *LEON) Plan(q *query.Query) (*plan.Node, error) {
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
