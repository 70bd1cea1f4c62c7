// Plan → operator-tree builder: maps every physical plan node to its
// streaming operator. Structural validation (scan/join operator kinds)
// happens here, before anything executes; catalog binding happens in each
// operator's Open, in the reference evaluator's left-to-right order.
package exec

import (
	"fmt"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// opKind indexes BatchPool.ops: one sync.Pool per recycled operator type.
type opKind int

const (
	opSeqScan opKind = iota
	opIndexScan
	opHashJoin
	opCrossJoin
	opSink
	numOpKinds
)

// drawOp returns an empty operator struct of kind k, recycled when p (which
// may be nil) has one: operator structs are pooled like buffers, drawn at
// build and returned by Executor.run after a clean run.
func drawOp[T any](p *BatchPool, k opKind) *T {
	if p != nil {
		if op, _ := p.ops[k].Get().(*T); op != nil {
			return op
		}
	}
	return new(T)
}

// recycler is implemented by the operator types drawOp serves: recycle
// empties the struct into p, dropping every reference and keeping only
// slice capacity — Open resolves everything catalog-derived again.
type recycler interface{ recycle(p *BatchPool) }

// buildOperator constructs the operator tree for the plan rooted at n,
// whose consumer reads the aliases in need (nil: none). Each operator
// emits only those of its subtree; a join asks its inputs for need plus
// its conditions' aliases, so intermediate rows carry just the key
// columns later joins probe with and the aggregate's column.
func (e *Executor) buildOperator(q *query.Query, n *plan.Node, need []string, analyze bool) (Operator, error) {
	pool := e.pool
	if n.Op == plan.Merge {
		if len(n.Shards) == 0 {
			return nil, fmt.Errorf("exec: Merge node for %s has no shards", n.Alias)
		}
		var backend ShardBackend = e
		if e.Backend != nil {
			backend = e.Backend
		}
		exs := make([]*exchangeOp, len(n.Shards))
		for i, s := range n.Shards {
			if s.Op != plan.Exchange || s.Left == nil || s.Left.Op != plan.SeqScan || !s.Left.IsLeaf() {
				return nil, fmt.Errorf("exec: Merge shard %d is not an Exchange over a SeqScan leaf", i)
			}
			exs[i] = &exchangeOp{backend: backend, node: s}
		}
		return timed(&mergeOp{e: e, node: n, exs: exs, pool: pool, need: need, analyze: analyze}, analyze), nil
	}
	if n.IsLeaf() {
		switch n.Op {
		case plan.SeqScan:
			s := drawOp[seqScanOp](pool, opSeqScan)
			s.e, s.node, s.pool, s.need = e, n, pool, need
			return timed(s, analyze), nil
		case plan.IndexScan:
			s := drawOp[indexScanOp](pool, opIndexScan)
			s.e, s.node, s.pool, s.need = e, n, pool, need
			return timed(s, analyze), nil
		default:
			return nil, fmt.Errorf("exec: %s is not a scan operator", n.Op)
		}
	}
	// An equi-join is drawn before its inputs are built: its struct holds
	// the alias list they are asked for. A cross join asks for need alone.
	var j *hashJoinOp
	childNeed := need
	if len(n.Cond) > 0 {
		j = drawOp[hashJoinOp](pool, opHashJoin)
		j.childNeed = joinNeed(j.childNeed[:0], need, n.Cond)
		childNeed = j.childNeed
	}
	left, err := e.buildOperator(q, n.Left, childNeed, analyze)
	if err != nil {
		return nil, err
	}
	right, err := e.buildOperator(q, n.Right, childNeed, analyze)
	if err != nil {
		return nil, err
	}
	// Decouple each join from its children through a buffered exchange so
	// adjacent pipeline stages overlap (a no-op unless Workers > 1; Merge
	// children are its own scatter-gather exchanges and are never wrapped).
	left, right = e.stage(left, analyze), e.stage(right, analyze)
	if j == nil {
		// Cross product: only nested loop supports it.
		if n.Op != plan.NestedLoopJoin {
			return nil, fmt.Errorf("exec: %s requires at least one equi-join condition", n.Op)
		}
		c := drawOp[crossJoinOp](pool, opCrossJoin)
		c.e, c.node, c.left, c.right, c.pool, c.need = e, n, left, right, pool, need
		return timed(c, analyze), nil
	}
	switch n.Op {
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin:
		j.e, j.q, j.node, j.left, j.right, j.pool, j.need = e, q, n, left, right, pool, need
		return timed(j, analyze), nil
	default:
		return nil, fmt.Errorf("exec: %s is not a join operator", n.Op)
	}
}
