// Package joinorder implements the learned join-order-search taxonomy of
// the tutorial's Section 2.1.3: offline reinforcement-learning methods
// (DQ [15]-style Q-learning with linear approximation, ReJoin [24]-style
// policy gradients, RTOS [73]-style neural value functions) and online
// methods (SkinnerDB [56]-style Monte-Carlo tree search, Eddy [58]-style
// selectivity-adaptive ordering), plus the classical DP/greedy/random
// baselines, all producing physical plans through the same evaluation path
// (opt.PlanFromOrder) so their plan quality is directly comparable.
package joinorder

import (
	"context"
	"fmt"
	"math/rand"

	"lqo/internal/data"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Context carries training inputs for join-order searchers.
type Context struct {
	Cat *data.Catalog
	// Base is the optimizer used to evaluate orders (cost model +
	// cardinality estimator) and by the DP/greedy baselines.
	Base     *opt.Optimizer
	Workload []*query.Query
	Episodes int // RL training episodes (default 300)
	Seed     int64
}

func (c *Context) episodes() int {
	if c.Episodes > 0 {
		return c.Episodes
	}
	return 300
}

// Searcher produces a physical plan for a query; learned searchers choose
// the join order, delegating operator selection to the base optimizer.
type Searcher interface {
	// Name identifies the method.
	Name() string
	// Train fits the searcher (no-op for online and classical methods).
	Train(ctx *Context) error
	// Plan returns a physical plan for q.
	Plan(q *query.Query) (*plan.Node, error)
}

// Info describes a registered searcher.
type Info struct {
	Name string
	Make func() Searcher
}

// Registry lists every join-order method the workbench ships.
func Registry() []Info {
	return []Info{
		{"dp", func() Searcher { return NewDP() }},
		{"greedy", func() Searcher { return NewGreedy() }},
		{"random", func() Searcher { return NewRandom(0) }},
		{"dq", func() Searcher { return NewDQ() }},
		{"rejoin", func() Searcher { return NewReJoin() }},
		{"rtos", func() Searcher { return NewRTOS() }},
		{"skinner-mcts", func() Searcher { return NewMCTS(0) }},
		{"eddy", func() Searcher { return NewEddy() }},
	}
}

// ByName constructs a registered searcher, or errors.
func ByName(name string) (Searcher, error) {
	for _, inf := range Registry() {
		if inf.Name == name {
			return inf.Make(), nil
		}
	}
	return nil, fmt.Errorf("joinorder: unknown searcher %q", name)
}

// DP is the exhaustive dynamic-programming baseline (optimal under the
// base optimizer's cost model).
type DP struct{ base *opt.Optimizer }

// NewDP returns the DP baseline.
func NewDP() *DP { return &DP{} }

// Name implements Searcher.
func (s *DP) Name() string { return "dp" }

// Train implements Searcher.
func (s *DP) Train(ctx *Context) error { s.base = ctx.Base; return nil }

// Plan implements Searcher.
func (s *DP) Plan(q *query.Query) (*plan.Node, error) {
	return s.base.OptimizeCtx(context.Background(), q)
}

// Greedy is the classical greedy baseline.
type Greedy struct{ base *opt.Optimizer }

// NewGreedy returns the greedy baseline.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements Searcher.
func (s *Greedy) Name() string { return "greedy" }

// Train implements Searcher.
func (s *Greedy) Train(ctx *Context) error { s.base = ctx.Base; return nil }

// Plan implements Searcher.
func (s *Greedy) Plan(q *query.Query) (*plan.Node, error) {
	return s.base.OptimizeGreedyCtx(context.Background(), q)
}

// Random joins in a random connected order — the sanity-check floor.
type Random struct {
	base *opt.Optimizer
	rng  *rand.Rand
	seed int64
}

// NewRandom returns the random-order baseline.
func NewRandom(seed int64) *Random { return &Random{seed: seed} }

// Name implements Searcher.
func (s *Random) Name() string { return "random" }

// Train implements Searcher.
func (s *Random) Train(ctx *Context) error {
	s.base = ctx.Base
	s.rng = rand.New(rand.NewSource(ctx.Seed + s.seed + 23))
	return nil
}

// Plan implements Searcher.
func (s *Random) Plan(q *query.Query) (*plan.Node, error) {
	order := randomConnectedOrder(q, s.rng)
	return s.base.PlanFromOrder(q, order)
}

// randomConnectedOrder returns a uniformly random order that keeps every
// prefix connected when possible.
func randomConnectedOrder(q *query.Query, rng *rand.Rand) []string {
	g := query.NewJoinGraph(q)
	aliases := q.Aliases()
	order := make([]string, 0, len(aliases))
	joined := map[string]bool{}
	remaining := append([]string(nil), aliases...)
	for len(remaining) > 0 {
		var cands []int
		if len(order) > 0 {
			for i, a := range remaining {
				if g.ConnectsTo(a, joined) {
					cands = append(cands, i)
				}
			}
		}
		var pick int
		if len(cands) > 0 {
			pick = cands[rng.Intn(len(cands))]
		} else {
			pick = rng.Intn(len(remaining))
		}
		a := remaining[pick]
		order = append(order, a)
		joined[a] = true
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return order
}

// planCost evaluates an order under the base optimizer's cost model.
func planCost(base *opt.Optimizer, q *query.Query, order []string) float64 {
	p, err := base.PlanFromOrder(q, order)
	if err != nil {
		return 1e18
	}
	return p.EstCost
}
