// Selinger dynamic programming: exhaustive bushy (or left-deep) join
// enumeration over connected alias subsets, memoized by bitmask.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// memoEntry is the best plan found for one alias subset; node is nil
// while (or when) the subset has none.
type memoEntry struct {
	node *plan.Node
	cost float64
	card float64
}

type dpState struct {
	g     *query.JoinGraph
	memo  []memoEntry // indexed by alias mask
	ops   []plan.Op   // join operators to cost when a pair has join conditions
	plans int64       // plan alternatives costed by this call
}

// crossOps is what a pair without join conditions may use: a cross
// product is a nested loop, whatever the hints say.
var crossOps = []plan.Op{plan.NestedLoopJoin}

// joinOps returns the join operators the hint set allows, in costing order.
func (o *Optimizer) joinOps() []plan.Op {
	var ops []plan.Op
	for _, op := range [...]plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin} {
		if o.Hints.AllowsJoin(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

func (o *Optimizer) optimizeDP(ctx context.Context, g *query.JoinGraph) (*plan.Node, error) {
	n := len(g.Aliases)
	st := &dpState{g: g, memo: make([]memoEntry, 1<<uint(n)), ops: o.joinOps()}
	if len(st.ops) == 0 {
		st.ops = []plan.Op{plan.HashJoin} // hints must not make queries unplannable
	}
	defer func() { atomic.StoreInt64(&o.plansConsidered, st.plans) }()

	// Base: best scan per alias.
	for i := 0; i < n; i++ {
		scan, considered, err := o.bestScan(g, i)
		st.plans += considered
		if err != nil {
			return nil, err
		}
		st.memo[1<<uint(i)] = memoEntry{node: scan, cost: scan.EstCost, card: scan.EstCard}
	}

	full := uint64(1)<<uint(n) - 1
	for mask := uint64(1); mask <= full; mask++ {
		if mask%64 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		st.memo[mask] = o.bestJoinForMask(st, mask)
	}
	if e := st.memo[full]; e.node != nil {
		return e.node, nil
	}
	return nil, fmt.Errorf("opt: no plan found for %s", g.Query().SQL())
}

// bestJoinForMask enumerates ordered partitions (left, right) of mask and
// keeps the cheapest feasible join. Every mask is estimated, connected or
// not: skipping the disconnected ones would change which plans exist.
func (o *Optimizer) bestJoinForMask(st *dpState, mask uint64) memoEntry {
	best := memoEntry{cost: math.Inf(1), card: o.estimate(st.g.Sub(mask))}
	var bestOp plan.Op
	var bestSub uint64
	// Iterate all proper non-empty submasks.
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		other := mask ^ sub
		if o.LeftDeepOnly && bits.OnesCount64(other) != 1 {
			continue // right operand must be a base relation
		}
		le, re := &st.memo[sub], &st.memo[other]
		if le.node == nil || re.node == nil {
			continue
		}
		// Cross product: nested loop only, and only if unavoidable
		// (the subset pair is disconnected in the join graph).
		ops := crossOps
		if st.g.CountBetween(sub, other) > 0 {
			ops = st.ops
		}
		for _, op := range ops {
			st.plans++
			total := le.cost + re.cost + o.Cost.JoinCost(op, le.card, re.card, best.card)
			if total < best.cost {
				best.cost, bestOp, bestSub = total, op, sub
			}
		}
	}
	if bestSub == 0 {
		return memoEntry{}
	}
	// Only the winner is materialised.
	l, r := part{st.memo[bestSub].node, bestSub}, part{st.memo[mask^bestSub].node, mask ^ bestSub}
	best.node = newJoin(st.g, bestOp, l, r, best.card, best.cost)
	return best
}

// bestScan returns the cheapest allowed scan of the graph's i-th alias,
// annotated with its estimate and cost, and how many alternatives it
// costed.
func (o *Optimizer) bestScan(g *query.JoinGraph, i int) (best *plan.Node, considered int64, err error) {
	q, alias := g.Query(), g.Aliases[i]
	preds := q.PredsOn(alias)
	table := q.TableOf(alias)
	card := o.estimate(g.Sub(1 << uint(i)))

	bestCost := math.Inf(1)
	consider := func(op plan.Op, inRows float64, npreds int) {
		considered++
		if c := o.Cost.ScanCost(op, inRows, card, npreds); c < bestCost {
			best = plan.NewScan(op, alias, table, preds)
			best.EstCard = card
			best.EstCost = c
			bestCost = c
		}
	}
	col := o.indexEqColumn(table, preds)
	if o.Hints.AllowsScan(plan.SeqScan) || col == "" {
		consider(plan.SeqScan, o.Cost.TableRows(table), len(preds))
	}
	if col != "" && o.Hints.AllowsScan(plan.IndexScan) {
		consider(plan.IndexScan, o.Cost.IndexFetchRows(table, col), len(preds)-1)
	}
	if best == nil {
		return nil, considered, fmt.Errorf("opt: no scan allowed for %s", alias)
	}
	return best, considered, nil
}
