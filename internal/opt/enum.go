// Selinger dynamic programming: exhaustive bushy (or left-deep) join
// enumeration over connected alias subsets, memoized by bitmask.
package opt

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"lqo/internal/cost"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// memoEntry is the best join found for one alias subset, kept as the
// split that makes it: the plan tree is built once, for the full set,
// after enumeration. left is the mask of the left operand — the subset
// itself for a base relation, 0 while (or when) the subset has no plan.
// in is the subset as a join input (its estimate and sort term) and nbr
// the aliases joined to it (JoinGraph.Nbr), both set for every subset so
// that no split recomputes them.
type memoEntry struct {
	in   cost.Input
	cost float64
	nbr  uint64
	op   plan.Op
	left uint64
}

type dpState struct {
	g     *query.JoinGraph
	cards []float64    // the estimate of every mask (estimateAll)
	memo  []memoEntry  // indexed by alias mask
	scans []*plan.Node // the best scan of each alias
	ops   []plan.Op    // join operators to cost when a pair has join conditions
	plans int64        // plan alternatives costed by this call
}

// crossOps is what a pair without join conditions may use: a cross
// product is a nested loop, whatever the hints say.
var crossOps = []plan.Op{plan.NestedLoopJoin}

// joinOps returns the join operators the hint set allows, in costing order.
func (o *Optimizer) joinOps() []plan.Op {
	all := [...]plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin}
	ops := make([]plan.Op, 0, len(all))
	for _, op := range all {
		if o.Hints.AllowsJoin(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

func (o *Optimizer) optimizeDP(ctx context.Context, g *query.JoinGraph) (*plan.Node, error) {
	n := len(g.Aliases)
	cards, err := o.estimateAll(ctx, g)
	if err != nil {
		return nil, err
	}
	st := &dpState{g: g, cards: cards, memo: make([]memoEntry, len(cards)), scans: make([]*plan.Node, n), ops: o.joinOps()}
	if len(st.ops) == 0 {
		st.ops = []plan.Op{plan.HashJoin} // hints must not make queries unplannable
	}
	defer func() { atomic.StoreInt64(&o.plansConsidered, st.plans) }()

	// Base: best scan per alias.
	for i := 0; i < n; i++ {
		bit := uint64(1) << uint(i)
		scan, considered, err := o.bestScan(g, i, cards[bit])
		st.plans += considered
		if err != nil {
			return nil, err
		}
		st.scans[i] = scan
		st.memo[bit] = memoEntry{in: cost.In(scan.EstCard), cost: scan.EstCost, nbr: g.Nbr(bit), left: bit}
	}

	full := uint64(1)<<uint(n) - 1
	for mask := uint64(1); mask <= full; mask++ {
		if mask%64 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if bits.OnesCount64(mask) < 2 {
			continue
		}
		st.memo[mask] = o.bestJoinForMask(st, mask)
	}
	if st.memo[full].left != 0 {
		return st.build(full), nil
	}
	return nil, fmt.Errorf("opt: no plan found for %s", g.Query().SQL())
}

// estimateAll returns the sanitized estimate of every alias subset of g,
// indexed by mask, before any subset is enumerated (EstimateGraph).
// Every mask is estimated, connected or not: skipping the disconnected
// ones would change which plans exist.
func (o *Optimizer) estimateAll(ctx context.Context, g *query.JoinGraph) ([]float64, error) {
	cards := make([]float64, 1<<uint(len(g.Aliases)))
	if err := EstimateGraph(ctx, o.Est, g, cards); err != nil {
		return nil, err
	}
	for m, c := range cards {
		cards[m] = metrics.SanitizeCard(c)
	}
	return cards, nil
}

// bestJoinForMask enumerates ordered partitions (left, right) of mask and
// keeps the cheapest feasible join. It only reads what estimateAll and
// the smaller masks' entries hold.
func (o *Optimizer) bestJoinForMask(st *dpState, mask uint64) memoEntry {
	card := st.cards[mask]
	best := memoEntry{in: cost.In(card), cost: math.Inf(1), nbr: st.memo[mask&(mask-1)].nbr | st.memo[mask&-mask].nbr}
	// Iterate all proper non-empty submasks.
	for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
		other := mask ^ sub
		if o.LeftDeepOnly && bits.OnesCount64(other) != 1 {
			continue // right operand must be a base relation
		}
		le, re := &st.memo[sub], &st.memo[other]
		if le.left == 0 || re.left == 0 {
			continue
		}
		// Cross product: nested loop only, and only if unavoidable
		// (the subset pair is disconnected in the join graph).
		ops := crossOps
		if le.nbr&other != 0 {
			ops = st.ops
		}
		for _, op := range ops {
			st.plans++
			total := le.cost + re.cost + o.Cost.JoinCost(op, le.in, re.in, card)
			if total < best.cost {
				best.cost, best.op, best.left = total, op, sub
			}
		}
	}
	return best
}

// build materialises the memo's plan for mask: its scan, or the join of
// the plans of its recorded split.
func (st *dpState) build(mask uint64) *plan.Node {
	e := &st.memo[mask]
	if e.left == mask {
		return st.scans[bits.TrailingZeros64(mask)]
	}
	l, r := part{st.build(e.left), e.left}, part{st.build(mask ^ e.left), mask ^ e.left}
	return newJoin(st.g, e.op, l, r, e.in.Rows, e.cost)
}

// bestScan returns the cheapest allowed scan of the graph's i-th alias,
// whose estimate is card, annotated with its estimate and cost, and how
// many alternatives it costed. Only the winner is built.
func (o *Optimizer) bestScan(g *query.JoinGraph, i int, card float64) (best *plan.Node, considered int64, err error) {
	q, alias := g.Query(), g.Aliases[i]
	preds := q.PredsOn(alias)
	table := q.TableOf(alias)

	bestCost := math.Inf(1)
	var bestOp plan.Op
	consider := func(op plan.Op, inRows float64, npreds int) {
		considered++
		if c := o.Cost.ScanCost(op, inRows, card, npreds); c < bestCost {
			bestCost, bestOp = c, op
		}
	}
	col := o.indexEqColumn(table, preds)
	if o.Hints.AllowsScan(plan.SeqScan) || col == "" {
		consider(plan.SeqScan, o.Cost.TableRows(table), len(preds))
	}
	if col != "" && o.Hints.AllowsScan(plan.IndexScan) {
		consider(plan.IndexScan, o.Cost.IndexFetchRows(table, col), len(preds)-1)
	}
	if math.IsInf(bestCost, 1) {
		return nil, considered, fmt.Errorf("opt: no scan allowed for %s", alias)
	}
	best = plan.NewScan(bestOp, alias, table, preds)
	best.EstCard, best.EstCost = card, bestCost
	return best, considered, nil
}
