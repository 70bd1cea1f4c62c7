// Package opt implements the traditional volcano-style optimizer of the
// workbench engine: Selinger dynamic programming over connected alias
// subsets with a greedy fallback for large queries (enum.go, greedy.go),
// operator selection under Bao-style hint sets, and pluggable cardinality
// estimation — the injection points every learned method in the survey
// steers through. Planning is two stages: join enumeration produces the
// initial tree, then a plan.PassPipeline of pure rewrite passes
// (predicate folding, optional scan sharding) runs it to fixpoint.
package opt

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// CardEstimator supplies cardinality estimates for logical (sub-)queries.
// Both the traditional histogram estimator and every learned estimator in
// internal/cardest satisfy it.
type CardEstimator interface {
	Estimate(q *query.Query) float64
}

// GraphEstimator is a CardEstimator that answers a whole join graph in
// one call: EstimateGraph sets cards[m] to exactly what Estimate(g.Sub(m))
// returns, bit for bit, for every mask 0 < m < len(cards) ==
// 1<<len(g.Aliases); cards[0], the empty set, is not part of the answer.
// An error means no answer (before training, or ctx done). Only an
// estimator whose Estimate is a pure function of the sub-query may
// implement it, so which form is asked cannot be observed.
type GraphEstimator interface {
	CardEstimator
	EstimateGraph(ctx context.Context, g *query.JoinGraph, cards []float64) error
}

// EstimateGraph answers g for est, as GraphEstimator specifies: through
// est's graph method if it has one, else by asking est about every
// non-empty mask on the Subs() slab, singletons in alias order first,
// then larger masks in ascending order, checking ctx every 64 masks. It
// is the one per-mask loop: a wrapper answers a graph by calling it.
func EstimateGraph(ctx context.Context, est CardEstimator, g *query.JoinGraph, cards []float64) error {
	if ge, ok := est.(GraphEstimator); ok {
		return ge.EstimateGraph(ctx, g, cards)
	}
	subs := g.Subs()
	for i := range g.Aliases {
		cards[1<<uint(i)] = est.Estimate(&subs[1<<uint(i)])
	}
	for mask := 1; mask < len(subs); mask++ {
		if mask%64 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		if bits.OnesCount(uint(mask)) >= 2 {
			cards[mask] = est.Estimate(&subs[mask])
		}
	}
	return nil
}

// Optimizer plans SPJ queries over a catalog.
type Optimizer struct {
	Cat   *data.Catalog
	Cost  *cost.Model
	Est   CardEstimator
	Hints plan.HintSet

	// LeftDeepOnly restricts DP to left-deep trees (System R's original
	// space); the default explores bushy plans. E8 quantifies the
	// difference in plan quality and enumeration effort.
	LeftDeepOnly bool

	// Passes overrides the rewrite pipeline run after join enumeration.
	// Nil means plan.DefaultPipeline(0), which plans unsharded trees;
	// plan.DefaultPipeline(n) for n ≥ 2 shards every SeqScan leaf over n
	// hash partitions. An explicit empty pipeline (&plan.PassPipeline{})
	// disables rewrites entirely.
	Passes *plan.PassPipeline

	// plansConsidered holds the plan-alternative count of the most
	// recently completed OptimizeCtx/OptimizeGreedyCtx call. Each call counts
	// locally and publishes its total with one atomic store, so an
	// optimizer shared by concurrent goroutines never races (it used to
	// be a plain exported field mutated during enumeration).
	plansConsidered int64
}

// New returns an optimizer with the given cost model and estimator.
func New(cat *data.Catalog, cm *cost.Model, est CardEstimator) *Optimizer {
	return &Optimizer{Cat: cat, Cost: cm, Est: est}
}

// WithHints returns a shallow copy of o steered by h.
func (o *Optimizer) WithHints(h plan.HintSet) *Optimizer {
	c := *o
	c.Hints = h
	return &c
}

// WithEstimator returns a shallow copy of o using est for cardinalities.
func (o *Optimizer) WithEstimator(est CardEstimator) *Optimizer {
	c := *o
	c.Est = est
	return &c
}

// PlansConsidered reports how many plan alternatives the most recently
// completed OptimizeCtx/OptimizeGreedyCtx call costed (the enumeration-effort
// metric for E8). Safe to call concurrently with planning.
func (o *Optimizer) PlansConsidered() int {
	return int(atomic.LoadInt64(&o.plansConsidered))
}

// maxDPTables bounds exhaustive DP; larger queries use greedy join
// ordering.
const maxDPTables = 12

// defaultPipeline is the rewrite pipeline of an optimizer with no
// Passes. Pipelines are read-only once built, so every plan shares it.
var defaultPipeline = plan.DefaultPipeline(0)

// pipeline returns the rewrite pipeline to run after enumeration.
func (o *Optimizer) pipeline() *plan.PassPipeline {
	if o.Passes != nil {
		return o.Passes
	}
	return defaultPipeline
}

// OptimizeCtx returns the minimum-estimated-cost plan for q: exhaustive
// bushy DP when the query is small enough, greedy otherwise, followed by
// the rewrite-pass pipeline. Plan nodes are annotated with EstCard and
// EstCost. Planning checks ctx between DP subsets (and greedy merge
// rounds) so a deadline covering optimize+execute also bounds enumeration
// time — a pathological estimator cannot stall planning indefinitely.
func (o *Optimizer) OptimizeCtx(ctx context.Context, q *query.Query) (*plan.Node, error) {
	return o.OptimizeGraphCtx(ctx, query.NewJoinGraph(q))
}

// OptimizeGraphCtx is OptimizeCtx over g, the join graph of the query to
// plan (g.Query()), for a caller that holds one already: a server plans a
// request and harvests its feedback from one graph.
func (o *Optimizer) OptimizeGraphCtx(ctx context.Context, g *query.JoinGraph) (*plan.Node, error) {
	p, _, err := o.OptimizeTraceCtx(ctx, g)
	return p, err
}

// OptimizeTraceCtx is OptimizeGraphCtx that also returns the rewrite-pass
// trace — the provenance EXPLAIN renders. The trace is per-call state
// (never stored on the Optimizer), so concurrent planning through a
// shared optimizer stays race-free.
func (o *Optimizer) OptimizeTraceCtx(ctx context.Context, g *query.JoinGraph) (*plan.Node, []plan.PassTrace, error) {
	root, err := o.enumerate(ctx, g)
	if err != nil {
		return nil, nil, err
	}
	return o.pipeline().Run(ctx, root, nil)
}

// enumerate runs join enumeration only — DP or greedy by query size — with
// no rewrite passes. This is the pre-refactor planning body; tests pin
// pipeline output fingerprint-equal to it when sharding is off.
func (o *Optimizer) enumerate(ctx context.Context, g *query.JoinGraph) (*plan.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := plannable(g.Query()); err != nil {
		return nil, err
	}
	if len(g.Aliases) <= maxDPTables {
		return o.optimizeDP(ctx, g)
	}
	return o.optimizeGreedy(ctx, g)
}

// plannable rejects a query with no tables, or with more than a JoinGraph
// indexes: alias sets are 64-bit masks, so a wider FROM list is an error
// here rather than a second code path.
func plannable(q *query.Query) error {
	switch n := len(q.Refs); {
	case n == 0:
		return fmt.Errorf("opt: query has no tables")
	case n > query.MaxRefs:
		return fmt.Errorf("opt: query has %d tables, the planner handles at most %d", n, query.MaxRefs)
	}
	return nil
}

// estimate queries the (possibly learned, possibly injected) estimator
// and sanitizes the answer before it can reach the cost model: NaN and
// negative estimates become 0, +Inf and absurd magnitudes cap at
// metrics.MaxCard. A broken estimator can mis-rank plans but can never
// poison cost arithmetic with non-finite values.
func (o *Optimizer) estimate(q *query.Query) float64 {
	return metrics.SanitizeCard(o.Est.Estimate(q))
}

// indexEqColumn returns the first equality-predicate column with an index
// on table, or "".
func (o *Optimizer) indexEqColumn(table string, preds []query.Pred) string {
	t := o.Cat.Table(table)
	if t == nil {
		return ""
	}
	for _, p := range preds {
		if p.Op == query.Eq && t.Index(p.Column) != nil {
			return p.Column
		}
	}
	return ""
}
