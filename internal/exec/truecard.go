package exec

import (
	"context"
	"fmt"
	"sync"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// CanonicalPlan builds a straightforward left-deep hash-join plan for q:
// sequential scans with pushed-down predicates, joined in a connected BFS
// order over the join graph. It is the "just get the answer" plan used to
// obtain true cardinalities, not an optimized plan.
func CanonicalPlan(q *query.Query) (*plan.Node, error) {
	if len(q.Refs) == 0 {
		return nil, fmt.Errorf("exec: query has no tables")
	}
	if len(q.Refs) > query.MaxRefs {
		return nil, fmt.Errorf("exec: query has %d tables, the join graph indexes at most %d", len(q.Refs), query.MaxRefs)
	}
	g := query.NewJoinGraph(q)
	scan := func(alias string) *plan.Node {
		return plan.NewScan(plan.SeqScan, alias, q.TableOf(alias), q.PredsOn(alias))
	}
	root := scan(q.Refs[0].Alias)
	joined := map[string]bool{q.Refs[0].Alias: true}
	remaining := make(map[string]bool)
	for _, r := range q.Refs[1:] {
		remaining[r.Alias] = true
	}
	for len(remaining) > 0 {
		// Prefer an alias connected to the joined set; fall back to a cross
		// product only when the join graph is disconnected.
		var pick string
		for _, r := range q.Refs {
			if remaining[r.Alias] && g.ConnectsTo(r.Alias, joined) {
				pick = r.Alias
				break
			}
		}
		if pick == "" {
			for _, r := range q.Refs {
				if remaining[r.Alias] {
					pick = r.Alias
					break
				}
			}
		}
		conds := g.JoinsBetween(joined, map[string]bool{pick: true})
		op := plan.HashJoin
		if len(conds) == 0 {
			op = plan.NestedLoopJoin
		}
		root = plan.NewJoin(op, root, scan(pick), conds)
		joined[pick] = true
		delete(remaining, pick)
	}
	return root, nil
}

// CardCache computes and memoizes true cardinalities by executing the
// canonical plan of each (sub-)query. It is safe for concurrent use.
type CardCache struct {
	Ex *Executor

	mu sync.Mutex
	m  map[string]float64
}

// NewCardCache returns a cache backed by ex.
func NewCardCache(ex *Executor) *CardCache {
	return &CardCache{Ex: ex, m: make(map[string]float64)}
}

// TrueCard returns the exact cardinality of q, executing it on first use.
// It is TrueCardCtx without a deadline. It stays because callers with no
// context to pass use it: the workload labeler, truth estimators behind
// Estimate(q), and the repo benchmark (benchmark/workloads.go), whose
// sources are frozen between benchmark revisions.
func (c *CardCache) TrueCard(q *query.Query) (float64, error) {
	//lqolint:ignore ctxprop compatibility shim; TrueCardCtx is the context-aware entry point and this wrapper exists for callers with no deadline
	return c.TrueCardCtx(context.Background(), q)
}

// TrueCardCtx is TrueCard under a context; a cache miss executes the
// canonical plan with the caller's deadline, a hit never blocks.
func (c *CardCache) TrueCardCtx(ctx context.Context, q *query.Query) (float64, error) {
	key := q.Key()
	c.mu.Lock()
	if v, ok := c.m[key]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	p, err := CanonicalPlan(q)
	if err != nil {
		return 0, err
	}
	res, err := c.Ex.RunCtx(ctx, q, p)
	if err != nil {
		return 0, err
	}
	v := float64(res.Count)
	c.mu.Lock()
	c.m[key] = v
	c.mu.Unlock()
	return v, nil
}

// Len reports the number of cached entries.
func (c *CardCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
