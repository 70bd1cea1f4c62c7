// Plan → operator-tree builder: maps every physical plan node to its
// streaming operator. Structural validation (scan/join operator kinds)
// happens here, before anything executes; catalog resolution happened
// before, in the run's Binding (bind.go), whose entries the operators
// read.
package exec

import (
	"fmt"

	"lqo/internal/plan"
	"lqo/internal/query"
)

// opKind indexes runSet.ops: one free stack per recycled operator type.
type opKind int

const (
	opSeqScan opKind = iota
	opIndexScan
	opHashJoin
	opCrossJoin
	opSink
	numOpKinds
)

// drawOp returns an empty operator struct of kind k, recycled when the
// run's set s has one: operator structs are pooled like buffers, drawn at
// build and returned by Executor.run after a clean run.
func drawOp[T any](s *runSet, k opKind) *T {
	n := len(s.ops[k]) - 1
	if n < 0 {
		return new(T)
	}
	op := s.ops[k][n].(*T)
	s.ops[k][n] = nil
	s.ops[k] = s.ops[k][:n]
	return op
}

// recycler is implemented by the operator types drawOp serves: recycle
// empties the struct into s, dropping every reference and keeping only
// slice capacity. What a struct resolved against the catalog lives in
// the run's Binding, not in the struct, so nothing catalog-derived can
// outlive its run.
type recycler interface{ recycle(s *runSet) }

// buildOperator constructs the operator tree for the plan rooted at n,
// the pre-order node *i of binding b, and advances *i past the subtree.
// Each operator emits the columns its node's entry lists.
func (e *Executor) buildOperator(pool *runSet, q *query.Query, n *plan.Node, b *Binding, i *int, analyze bool) (Operator, error) {
	nb := &b.nodes[*i]
	*i++
	if n.IsLeaf() {
		switch n.Op {
		case plan.SeqScan:
			s := drawOp[seqScanOp](pool, opSeqScan)
			s.init(e, q, n, pool, b, nb)
			return timed(s, analyze), nil
		case plan.IndexScan:
			s := drawOp[indexScanOp](pool, opIndexScan)
			s.init(e, q, n, pool, b, nb)
			return timed(s, analyze), nil
		case plan.Merge:
			if n.Shards < 1 {
				return nil, fmt.Errorf("exec: Merge node for %s has no shards", n.Alias)
			}
			m := &mergeOp{backend: e.Backend}
			m.init(e, q, n, pool, b, nb)
			return timed(m, analyze), nil
		default:
			return nil, fmt.Errorf("exec: %s is not a scan operator", n.Op)
		}
	}
	widths := [2]int{b.nodes[*i].width()}
	left, err := e.buildOperator(pool, q, n.Left, b, i, analyze)
	if err != nil {
		return nil, err
	}
	widths[1] = b.nodes[*i].width()
	right, err := e.buildOperator(pool, q, n.Right, b, i, analyze)
	if err != nil {
		return nil, err
	}
	srcs := view(b.srcs, nb.srcs)
	if len(n.Cond) == 0 {
		// Cross product: only nested loop supports it.
		if n.Op != plan.NestedLoopJoin {
			return nil, fmt.Errorf("exec: %s requires at least one equi-join condition", n.Op)
		}
		c := drawOp[crossJoinOp](pool, opCrossJoin)
		c.e, c.node, c.left, c.right, c.pool, c.srcs, c.widths = e, n, left, right, pool, srcs, widths
		return timed(c, analyze), nil
	}
	switch n.Op {
	case plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin:
		j := drawOp[hashJoinOp](pool, opHashJoin)
		j.e, j.node, j.left, j.right, j.pool, j.srcs, j.widths = e, n, left, right, pool, srcs, widths
		keys := view(b.keys, nb.keys) // the left side's, then the right side's
		j.lks, j.rks = keys[:len(n.Cond)], keys[len(n.Cond):]
		return timed(j, analyze), nil
	default:
		return nil, fmt.Errorf("exec: %s is not a join operator", n.Op)
	}
}
