package joinorder

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// MCTS is the SkinnerDB line [56]: per-query Monte-Carlo tree search (UCT)
// over join orders, requiring no offline training.
//
// Substitution vs. the paper: SkinnerDB switches join orders *during*
// execution in time slices with regret bounds; the workbench executor has
// no mid-query switching, so each UCT simulation evaluates a complete
// order under the cost model instead of a time slice of real execution.
// The search dynamics (UCT selection, incremental tree growth, best-order
// extraction) follow the paper.
type MCTS struct {
	base *opt.Optimizer
	rng  *rand.Rand
}

// MCTS's simulation budget per query and its UCT exploration constant.
const (
	mctsIterations = 200
	mctsC          = 1.2
)

// NewMCTS returns an online MCTS searcher.
func NewMCTS() *MCTS { return &MCTS{} }

// Name implements learnedopt.Optimizer.
func (s *MCTS) Name() string { return "skinner-mcts" }

// Train implements learnedopt.Optimizer (online method: records the
// evaluator only).
func (s *MCTS) Train(_ context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.rng = rand.New(rand.NewSource(lc.Seed + 43))
	return nil
}

type uctNode struct {
	children map[string]*uctNode
	visits   float64
	total    float64 // sum of returns
}

func newUCTNode() *uctNode { return &uctNode{children: map[string]*uctNode{}} }

// Plan implements learnedopt.Optimizer, checking ctx once per simulation.
func (s *MCTS) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	g := query.NewJoinGraph(q)
	root := newUCTNode()
	aliases := q.Aliases()

	bestCost := math.Inf(1)
	var bestOrder []string
	for it := 0; it < mctsIterations; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		node := root
		joined := map[string]bool{}
		var order []string
		remaining := append([]string(nil), aliases...)
		// Selection + expansion.
		for len(remaining) > 0 {
			cands := connectedCands(g, joined, remaining, len(order) > 0)
			pick := s.selectUCT(node, cands)
			order = append(order, pick)
			joined[pick] = true
			remaining = removeStr(remaining, pick)
			child, ok := node.children[pick]
			if !ok {
				child = newUCTNode()
				node.children[pick] = child
				// Rollout: random completion.
				for len(remaining) > 0 {
					rc := connectedCands(g, joined, remaining, true)
					a := rc[s.rng.Intn(len(rc))]
					order = append(order, a)
					joined[a] = true
					remaining = removeStr(remaining, a)
				}
				node = child
				break
			}
			node = child
		}
		cost := planCost(s.base, q, order)
		if cost < bestCost {
			bestCost = cost
			bestOrder = append([]string(nil), order...)
		}
		ret := episodeReturn(cost)
		// Backup along the taken path.
		node = root
		node.visits++
		node.total += ret
		for _, a := range order {
			child, ok := node.children[a]
			if !ok {
				break
			}
			child.visits++
			child.total += ret
			node = child
		}
	}
	if bestOrder == nil {
		bestOrder = aliases
	}
	return planOrder(ctx, s.base, q, bestOrder)
}

func (s *MCTS) selectUCT(node *uctNode, cands []string) string {
	// Unvisited candidates first (deterministic order, then rng among them).
	var fresh []string
	for _, a := range cands {
		if node.children[a] == nil {
			fresh = append(fresh, a)
		}
	}
	if len(fresh) > 0 {
		return fresh[s.rng.Intn(len(fresh))]
	}
	best := math.Inf(-1)
	pick := cands[0]
	for _, a := range cands {
		ch := node.children[a]
		ucb := ch.total/ch.visits + mctsC*math.Sqrt(math.Log(node.visits+1)/ch.visits)
		if ucb > best {
			best, pick = ucb, a
		}
	}
	return pick
}

func connectedCands(g *query.JoinGraph, joined map[string]bool, remaining []string, requireConnected bool) []string {
	if !requireConnected || len(joined) == 0 {
		return remaining
	}
	var out []string
	for _, a := range remaining {
		if g.ConnectsTo(a, joined) {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return remaining
	}
	return out
}

func removeStr(xs []string, v string) []string {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

// Eddy is the adaptive-ordering line [58]: order tables by their observed
// filtered selectivity (cheapest, most selective inputs first), measured
// on the statistics samples at plan time — adapting to the actual query
// rather than a learned model.
//
// Substitution vs. the paper: true eddies reroute tuples operator-by-
// operator mid-execution; the workbench fixes the order per query using
// the same selectivity signal the eddy's lottery scheduling converges to.
type Eddy struct {
	base  *opt.Optimizer
	stats *stats.CatalogStats
}

// NewEddy returns the adaptive baseline.
func NewEddy() *Eddy { return &Eddy{} }

// Name implements learnedopt.Optimizer.
func (s *Eddy) Name() string { return "eddy" }

// Train implements learnedopt.Optimizer.
func (s *Eddy) Train(_ context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.stats = lc.Base.Cost.Stats
	return nil
}

// Plan implements learnedopt.Optimizer.
func (s *Eddy) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	g := query.NewJoinGraph(q)
	type scored struct {
		alias string
		rows  float64
	}
	var all []scored
	for _, r := range q.Refs {
		ts := s.stats.Tables[r.Table]
		rows := 0.0
		if ts != nil {
			sel := 1.0
			for _, p := range q.PredsOn(r.Alias) {
				cs := ts.Cols[p.Column]
				if cs == nil {
					sel /= 3
					continue
				}
				lo, hi := p.Bounds(cs.Min, cs.Max)
				if p.Op == query.Eq {
					sel *= cs.Hist.SelectivityEq(p.Val.AsFloat())
				} else {
					sel *= cs.Hist.SelectivityRange(lo, hi)
				}
			}
			rows = ts.Rows * sel
		}
		all = append(all, scored{r.Alias, rows})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].rows < all[j].rows })
	// Greedily build a connected order preferring small filtered inputs.
	joined := map[string]bool{}
	var order []string
	used := map[string]bool{}
	for len(order) < len(all) {
		picked := false
		for _, c := range all {
			if used[c.alias] {
				continue
			}
			if len(order) > 0 && !g.ConnectsTo(c.alias, joined) {
				continue
			}
			order = append(order, c.alias)
			joined[c.alias] = true
			used[c.alias] = true
			picked = true
			break
		}
		if !picked {
			for _, c := range all { // disconnected remainder
				if !used[c.alias] {
					order = append(order, c.alias)
					joined[c.alias] = true
					used[c.alias] = true
					break
				}
			}
		}
	}
	return planOrder(ctx, s.base, q, order)
}
