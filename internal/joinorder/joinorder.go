// Package joinorder implements the learned join-order-search taxonomy of
// the tutorial's Section 2.1.3: offline reinforcement-learning methods
// (DQ [15]-style Q-learning with linear approximation, ReJoin [24]-style
// policy gradients, RTOS [73]-style neural value functions) and online
// methods (SkinnerDB [56]-style Monte-Carlo tree search, Eddy [58]-style
// selectivity-adaptive ordering), plus the classical greedy and random
// baselines, all producing physical plans through the same evaluation path
// (opt.PlanFromOrder) so their plan quality is directly comparable. Every
// searcher is a learnedopt.Optimizer: learned search chooses the join
// order and delegates operator selection to the Context's native
// optimizer, which also evaluates orders (cost model + estimator). The
// exhaustive-DP baseline is learnedopt.Native; internal/bench lists every
// planner once, with its class, and judges them all in one experiment.
package joinorder

import (
	"context"
	"math/rand"

	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// The RL searchers' training schedule: how many episodes they run, and
// the ε-greedy exploration rate DQ and RTOS start from (decayed per
// episode).
const (
	episodes       = 300
	exploreEpsilon = 0.2
)

// Greedy is the classical greedy baseline.
type Greedy struct{ base *opt.Optimizer }

// NewGreedy returns the greedy baseline.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements learnedopt.Optimizer.
func (s *Greedy) Name() string { return "greedy" }

// Train implements learnedopt.Optimizer.
func (s *Greedy) Train(_ context.Context, lc *learnedopt.Context) error { s.base = lc.Base; return nil }

// Plan implements learnedopt.Optimizer.
func (s *Greedy) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	return s.base.OptimizeGreedyCtx(ctx, q)
}

// Random joins in a random connected order — the sanity-check floor.
type Random struct {
	base *opt.Optimizer
	rng  *rand.Rand
}

// NewRandom returns the random-order baseline.
func NewRandom() *Random { return &Random{} }

// Name implements learnedopt.Optimizer.
func (s *Random) Name() string { return "random" }

// Train implements learnedopt.Optimizer.
func (s *Random) Train(_ context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.rng = rand.New(rand.NewSource(lc.Seed + 23))
	return nil
}

// Plan implements learnedopt.Optimizer.
func (s *Random) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	return planOrder(ctx, s.base, q, randomConnectedOrder(q, s.rng))
}

// planOrder is base's plan for q joined in order, unless ctx is done.
func planOrder(ctx context.Context, base *opt.Optimizer, q *query.Query, order []string) (*plan.Node, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return base.PlanFromOrder(q, order)
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
