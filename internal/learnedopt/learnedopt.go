// Package learnedopt implements the end-to-end learned query optimizers of
// the tutorial's Section 2.2 under one unified framework — candidate-plan
// exploration + a learned risk model for selection — exactly the framing
// the tutorial uses to subsume Bao [37], Lero [79], Neo [38], LEON [4] and
// friends. It also ships the Section 2.2.2 regression-elimination layer:
// Eraser [62] and HyperQO's ensemble-variance filter [72].
//
// Optimizer is the one learned-planner contract: internal/joinorder's
// join-order searchers implement it too, and Native is the baseline
// every learned planner is judged against. Train and Plan take the
// caller's context, and every optimizer here forwards it into planning
// and execution, so a query's deadline bounds the learned planner that
// serves it.
package learnedopt

import (
	"context"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// Context carries everything an end-to-end optimizer trains from.
type Context struct {
	Cat   *data.Catalog
	Stats *stats.CatalogStats
	Ex    *exec.Executor
	// Base is the native (traditional) optimizer being steered/replaced.
	Base     *opt.Optimizer
	Workload []*query.Query
	Seed     int64
}

// Optimizer is an end-to-end learned query optimizer.
type Optimizer interface {
	// Name identifies the method.
	Name() string
	// Train fits the optimizer on lc, under ctx (a no-op for online and
	// classical methods beyond recording lc's native optimizer).
	Train(ctx context.Context, lc *Context) error
	// Plan returns the selected physical plan for q, under ctx.
	Plan(ctx context.Context, q *query.Query) (*plan.Node, error)
}

// Candidate is one explored plan with its predicted latency.
type Candidate struct {
	Plan      *plan.Node
	Predicted float64
	// Knob is the steering knob that produced Plan (nil outside Steering).
	Knob any
}

// CandidateProvider is implemented by optimizers that expose their
// explored candidate set — the hook regression-elimination plugins
// (Eraser, HyperQO) attach to.
type CandidateProvider interface {
	Candidates(ctx context.Context, q *query.Query) ([]Candidate, error)
}

// Native wraps the traditional optimizer as the baseline arm: the
// exhaustive DP, optimal under its own cost model.
type Native struct {
	base *opt.Optimizer
}

// NewNative returns the native baseline.
func NewNative() *Native { return &Native{} }

// Name implements Optimizer.
func (n *Native) Name() string { return "native" }

// Train implements Optimizer.
func (n *Native) Train(_ context.Context, lc *Context) error { n.base = lc.Base; return nil }

// Plan implements Optimizer.
func (n *Native) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	return n.base.OptimizeCtx(ctx, q)
}

// Measure executes p for q under ctx and returns the measured latency in
// work units — the workbench's deterministic latency signal. It annotates
// p's TrueCard (exec's RunAnalyze): the measured plan becomes a training
// example, and multi-task cost models learn the root's cardinality.
func Measure(ctx context.Context, ex *exec.Executor, q *query.Query, p *plan.Node) (float64, error) {
	res, _, err := ex.RunAnalyze(ctx, q, p)
	if err != nil {
		return 0, err
	}
	return res.Stats.WorkUnits, nil
}
