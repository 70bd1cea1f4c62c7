// Greedy join ordering for queries past the DP size bound, plus the
// learned-policy evaluation paths: PlanFromOrder (left-deep plan from an
// alias order) and CandidatePlans (Bao-style hint-set candidates).
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync/atomic"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// OptimizeGreedyCtx builds a plan by repeatedly joining the pair of
// sub-plans with the lowest resulting cost (connected pairs only, unless
// forced). It scales to arbitrary query sizes. ctx is checked once per
// merge round. It returns raw enumeration output — no rewrite passes
// (OptimizeCtx layers the pipeline on top).
func (o *Optimizer) OptimizeGreedyCtx(ctx context.Context, q *query.Query) (*plan.Node, error) {
	g, err := newGraph(q)
	if err != nil {
		return nil, err
	}
	return o.optimizeGreedy(ctx, g)
}

func (o *Optimizer) optimizeGreedy(ctx context.Context, g *query.JoinGraph) (*plan.Node, error) {
	var plans int64
	defer func() { atomic.StoreInt64(&o.plansConsidered, plans) }()
	parts := make([]part, 0, len(g.Aliases))
	for i := range g.Aliases {
		scan, _, err := o.bestScan(g, i)
		if err != nil {
			return nil, err
		}
		parts = append(parts, part{node: scan, mask: 1 << uint(i)})
	}
	ops := o.joinOps()
	for len(parts) > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Cross joins wait until no connected pair remains.
		connectable := false
		for i := range parts {
			for j := i + 1; j < len(parts); j++ {
				connectable = connectable || g.CountBetween(parts[i].mask, parts[j].mask) > 0
			}
		}
		bestI, bestJ := -1, -1
		var bestOp plan.Op
		bestCost, bestCard := math.Inf(1), 0.0
		for i := range parts {
			for j := range parts {
				if i == j {
					continue
				}
				pairOps := ops
				if g.CountBetween(parts[i].mask, parts[j].mask) == 0 {
					if connectable {
						continue
					}
					pairOps = crossOps
				}
				l, r := parts[i].node, parts[j].node
				card := o.estimate(g.Sub(parts[i].mask | parts[j].mask))
				for _, op := range pairOps {
					plans++
					total := l.EstCost + r.EstCost + o.Cost.JoinCost(op, l.EstCard, r.EstCard, card)
					if total < bestCost {
						bestCost, bestCard, bestOp = total, card, op
						bestI, bestJ = i, j
					}
				}
			}
		}
		if bestI < 0 {
			return nil, fmt.Errorf("opt: greedy failed to combine partitions")
		}
		l, r := parts[bestI], parts[bestJ]
		merged := part{node: newJoin(g, bestOp, l, r, bestCard, bestCost), mask: l.mask | r.mask}
		next := parts[:0]
		for k, p := range parts {
			if k != bestI && k != bestJ {
				next = append(next, p)
			}
		}
		parts = append(next, merged)
	}
	return parts[0].node, nil
}

// part is a sub-plan under construction outside DP, with its alias mask;
// its running cost and estimate are the node's annotations.
type part struct {
	node *plan.Node
	mask uint64
}

// newJoin materialises the chosen join of two parts, annotated.
func newJoin(g *query.JoinGraph, op plan.Op, l, r part, card, cost float64) *plan.Node {
	n := plan.NewJoin(op, l.node, r.node, g.JoinsBetweenMasks(l.mask, r.mask))
	n.EstCard = card
	n.EstCost = cost
	return n
}

// PlanFromOrder builds the best left-deep plan following the given alias
// join order, choosing scan and join operators by cost under the hint set.
// It is the evaluation path for learned join-order policies.
func (o *Optimizer) PlanFromOrder(q *query.Query, order []string) (*plan.Node, error) {
	if len(order) != len(q.Refs) {
		return nil, fmt.Errorf("opt: order covers %d of %d aliases", len(order), len(q.Refs))
	}
	g, err := newGraph(q)
	if err != nil {
		return nil, err
	}
	ops := o.joinOps()
	var root part
	for step, a := range order {
		bit := g.Bit(a)
		if bit == 0 {
			return nil, fmt.Errorf("opt: order names unknown alias %q", a)
		}
		scan, _, err := o.bestScan(g, bits.TrailingZeros64(bit))
		if err != nil {
			return nil, err
		}
		right := part{node: scan, mask: bit}
		if step == 0 {
			root = right
			continue
		}
		pairOps := ops
		if g.CountBetween(root.mask, bit) == 0 {
			pairOps = crossOps
		}
		card := o.estimate(g.Sub(root.mask | bit))
		bestCost := math.Inf(1)
		var bestOp plan.Op
		for _, op := range pairOps {
			total := root.node.EstCost + scan.EstCost + o.Cost.JoinCost(op, root.node.EstCard, scan.EstCard, card)
			if total < bestCost {
				bestCost, bestOp = total, op
			}
		}
		if math.IsInf(bestCost, 1) {
			return nil, fmt.Errorf("opt: no join operator allowed for order step %s", a)
		}
		root = part{node: newJoin(g, bestOp, root, right, card, bestCost), mask: root.mask | bit}
	}
	return root.node, nil
}

// CandidatePlans optimizes q once per hint set and returns the distinct
// resulting plans (by fingerprint) — the Bao-style candidate generator.
func (o *Optimizer) CandidatePlans(ctx context.Context, q *query.Query, hints []plan.HintSet) ([]*plan.Node, error) {
	seen := map[string]bool{}
	var out []*plan.Node
	for _, h := range hints {
		if !h.Valid() {
			continue
		}
		p, err := o.WithHints(h).OptimizeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		fp := p.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EstCost < out[j].EstCost })
	return out, nil
}
