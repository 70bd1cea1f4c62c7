// Package learnedopt implements the end-to-end learned query optimizers of
// the tutorial's Section 2.2 under one unified framework — candidate-plan
// exploration + a learned risk model for selection — exactly the framing
// the tutorial uses to subsume Bao [37], Lero [79], Neo [38], LEON [4] and
// friends. It also ships the Section 2.2.2 regression-elimination layer:
// Eraser [62], HyperQO's ensemble-variance filter [72], and a
// PerfGuard-style validator [18].
package learnedopt

import (
	"context"
	"fmt"

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
	// Train fits the optimizer by executing training-workload plans.
	Train(ctx *Context) error
	// Plan returns the selected physical plan for q.
	Plan(q *query.Query) (*plan.Node, error)
}

// Candidate is one explored plan with its predicted latency.
type Candidate struct {
	Plan      *plan.Node
	Predicted float64
}

// CandidateProvider is implemented by optimizers that expose their
// explored candidate set — the hook regression-elimination plugins
// (Eraser, HyperQO, PerfGuard) attach to.
type CandidateProvider interface {
	Candidates(q *query.Query) ([]Candidate, error)
}

// Info describes a registered optimizer.
type Info struct {
	Name string
	Make func() Optimizer
}

// Registry lists the end-to-end optimizers the workbench ships.
func Registry() []Info {
	return []Info{
		{"native", func() Optimizer { return NewNative() }},
		{"bao", func() Optimizer { return NewBao() }},
		{"lero", func() Optimizer { return NewLero() }},
		{"neo", func() Optimizer { return NewNeo() }},
		{"loger", func() Optimizer { return NewLOGER() }},
		{"leon", func() Optimizer { return NewLEON() }},
		{"hyperqo", func() Optimizer { return NewHyperQO() }},
	}
}

// ByName constructs a registered optimizer, or errors.
func ByName(name string) (Optimizer, error) {
	for _, inf := range Registry() {
		if inf.Name == name {
			return inf.Make(), nil
		}
	}
	return nil, fmt.Errorf("learnedopt: unknown optimizer %q", name)
}

// Native wraps the traditional optimizer as the baseline arm.
type Native struct {
	base *opt.Optimizer
}

// NewNative returns the native baseline.
func NewNative() *Native { return &Native{} }

// Name implements Optimizer.
func (n *Native) Name() string { return "native" }

// Train implements Optimizer.
func (n *Native) Train(ctx *Context) error { n.base = ctx.Base; return nil }

// Plan implements Optimizer.
func (n *Native) Plan(q *query.Query) (*plan.Node, error) {
	return n.base.OptimizeCtx(context.Background(), q)
}

// Measure executes p for q and returns the measured latency in work
// units — the workbench's deterministic latency signal.
func Measure(ex *exec.Executor, q *query.Query, p *plan.Node) (float64, error) {
	res, err := ex.RunCtx(context.Background(), q, p)
	if err != nil {
		return 0, err
	}
	return res.Stats.WorkUnits, nil
}
