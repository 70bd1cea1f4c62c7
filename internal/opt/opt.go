// Package opt implements the traditional volcano-style optimizer of the
// workbench engine: Selinger dynamic programming over connected alias
// subsets with a greedy fallback for large queries (enum.go, greedy.go),
// operator selection under Bao-style hint sets, and pluggable cardinality
// estimation — the injection points every learned method in the survey
// steers through. Since the pass-framework refactor, planning is two
// stages: join enumeration produces the initial tree, then a
// plan.PassPipeline of pure rewrite passes (pushdown, folding, join-key
// dedup, re-annotation, optional scan sharding) runs it to fixpoint.
package opt

import (
	"context"
	"fmt"
	"math"
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

// Optimizer plans SPJ queries over a catalog.
type Optimizer struct {
	Cat   *data.Catalog
	Cost  *cost.Model
	Est   CardEstimator
	Hints plan.HintSet

	// MaxDPTables bounds exhaustive DP; larger queries use greedy join
	// ordering. 0 means the default of 12.
	MaxDPTables int

	// LeftDeepOnly restricts DP to left-deep trees (System R's original
	// space); the default explores bushy plans. E8 quantifies the
	// difference in plan quality and enumeration effort.
	LeftDeepOnly bool

	// Shards is the scatter-gather fan-out handed to the default pass
	// pipeline: at 2 or more, the ShardScans pass splits SeqScan leaves
	// into that many Exchange subplans under a Merge node. 0 or 1 plans
	// single-node trees (the default).
	Shards int

	// Passes overrides the rewrite pipeline run after join enumeration.
	// Nil means plan.DefaultPipeline(Shards). An explicit empty pipeline
	// (&plan.PassPipeline{}) disables rewrites entirely.
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

func (o *Optimizer) maxDP() int {
	if o.MaxDPTables > 0 {
		return o.MaxDPTables
	}
	return 12
}

// pipeline returns the rewrite pipeline to run after enumeration.
func (o *Optimizer) pipeline() *plan.PassPipeline {
	if o.Passes != nil {
		return o.Passes
	}
	return plan.DefaultPipeline(o.Shards)
}

// OptimizeCtx returns the minimum-estimated-cost plan for q: exhaustive
// bushy DP when the query is small enough, greedy otherwise, followed by
// the rewrite-pass pipeline. Plan nodes are annotated with EstCard and
// EstCost. Planning checks ctx between DP subsets (and greedy merge
// rounds) so a deadline covering optimize+execute also bounds enumeration
// time — a pathological estimator cannot stall planning indefinitely.
func (o *Optimizer) OptimizeCtx(ctx context.Context, q *query.Query) (*plan.Node, error) {
	p, _, err := o.OptimizeTraceCtx(ctx, q)
	return p, err
}

// OptimizeTraceCtx is OptimizeCtx that also returns the rewrite-pass
// trace — the provenance EXPLAIN renders. The trace is per-call state
// (never stored on the Optimizer), so concurrent planning through a
// shared optimizer stays race-free.
func (o *Optimizer) OptimizeTraceCtx(ctx context.Context, q *query.Query) (*plan.Node, []plan.PassTrace, error) {
	root, err := o.enumerate(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	pc := &plan.PassContext{Query: q, Estimate: o.estimate, Shards: o.Shards}
	return o.pipeline().Run(ctx, root, pc)
}

// enumerate runs join enumeration only — DP or greedy by query size — with
// no rewrite passes. This is the pre-refactor planning body; tests pin
// pipeline output fingerprint-equal to it when sharding is off.
func (o *Optimizer) enumerate(ctx context.Context, q *query.Query) (*plan.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := newGraph(q)
	if err != nil {
		return nil, err
	}
	if len(q.Refs) <= o.maxDP() {
		return o.optimizeDP(ctx, g)
	}
	return o.optimizeGreedy(ctx, g)
}

// newGraph indexes q for planning. Alias sets are 64-bit masks, so a
// wider FROM list is an error here rather than a second code path.
func newGraph(q *query.Query) (*query.JoinGraph, error) {
	switch n := len(q.Refs); {
	case n == 0:
		return nil, fmt.Errorf("opt: query has no tables")
	case n > query.MaxRefs:
		return nil, fmt.Errorf("opt: query has %d tables, the planner handles at most %d", n, query.MaxRefs)
	}
	return query.NewJoinGraph(q), nil
}

// estimate queries the (possibly learned, possibly injected) estimator
// and sanitizes the answer before it can reach the cost model: NaN and
// negative estimates become 0, +Inf and absurd magnitudes cap at
// metrics.MaxCard. A broken estimator can mis-rank plans but can never
// poison cost arithmetic with non-finite values. The same method backs
// plan.PassContext.Estimate, which is why passes must not re-clamp.
func (o *Optimizer) estimate(q *query.Query) float64 {
	c := o.Est.Estimate(q)
	//lqolint:ignore cardclamp this IS the sanitizer the rule mandates; it must inspect the raw estimate to clamp it
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	//lqolint:ignore cardclamp second half of the sanitizer itself; see above
	if c > metrics.MaxCard {
		return metrics.MaxCard
	}
	return c
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
