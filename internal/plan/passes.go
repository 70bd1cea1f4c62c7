// Default rewrite passes: predicate pushdown into scans, constant /
// always-false predicate folding, redundant-join-key dedup, and estimate
// re-annotation. Each pass is pure (clone-on-write) and idempotent, so
// the pipeline reaches fixpoint in one round on enumeration output —
// which also keeps post-pipeline plans fingerprint-identical to the
// enumerator's plans for well-formed queries.
package plan

import (
	"context"
	"math"

	"lqo/internal/data"
	"lqo/internal/query"
)

// DefaultPasses returns the standard pass list: pushdown, constfold,
// joinkey-dedup, reannotate, plus shard-scans when numShards >= 2 — the
// promql-engine DefaultOptimizers(numShards) idiom.
func DefaultPasses(numShards int) []RewritePass {
	passes := []RewritePass{
		PushdownPass{},
		ConstFoldPass{},
		JoinKeyDedupPass{},
		ReannotatePass{},
	}
	if numShards >= 2 {
		passes = append(passes, ShardScans(numShards))
	}
	return passes
}

// DefaultPipeline returns a PassPipeline over DefaultPasses(numShards).
func DefaultPipeline(numShards int) *PassPipeline {
	return &PassPipeline{Passes: DefaultPasses(numShards)}
}

// predsEqual compares two predicate lists element-wise by canonical key.
func predsEqual(a, b []query.Pred) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].KeyString() != b[i].KeyString() {
			return false
		}
	}
	return true
}

// scanLike reports whether the node carries a pushed-down predicate list
// that must mirror the query's per-alias predicates: scan leaves (shard
// subplan leaves included) and Merge nodes standing in for a scan.
func scanLike(n *Node) bool {
	return n.IsLeaf() || n.Op == Merge
}

// PushdownPass pushes the query's per-alias filter predicates into every
// scan (and Merge) node. Enumeration output already carries them, so the
// pass is a no-op there; externally supplied plans — Bao hint plans,
// learned join orders, hand-built trees — get their filters pushed down
// instead of silently scanning unfiltered.
type PushdownPass struct{}

// Name implements RewritePass.
func (PushdownPass) Name() string { return "pushdown" }

// Rewrite implements RewritePass.
func (PushdownPass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil || pc.Query == nil {
		return n, false
	}
	needs := false
	n.Walk(func(m *Node) {
		if scanLike(m) && !predsEqual(m.Preds, pc.Query.PredsOn(m.Alias)) {
			needs = true
		}
	})
	if !needs {
		return n, false
	}
	c := n.Clone()
	c.Walk(func(m *Node) {
		if scanLike(m) {
			m.Preds = append([]query.Pred(nil), pc.Query.PredsOn(m.Alias)...)
		}
	})
	return c, true
}

// ConstFoldPass folds constant predicate structure: exact duplicate
// conjuncts on a scan are dropped (first occurrence wins), and a node
// whose predicate set is provably unsatisfiable is annotated with
// EstCard 0 so the cost of everything above it reflects the empty
// result. Detection is conservative — only definite contradictions under
// the executor's matching semantics fold (see alwaysFalse).
type ConstFoldPass struct{}

// Name implements RewritePass.
func (ConstFoldPass) Name() string { return "constfold" }

// Rewrite implements RewritePass.
func (ConstFoldPass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil {
		return n, false
	}
	needs := false
	n.Walk(func(m *Node) {
		if !scanLike(m) {
			return
		}
		if len(dedupPreds(m.Preds)) != len(m.Preds) {
			needs = true
		}
		if alwaysFalse(m.Preds) && math.Float64bits(m.EstCard) != 0 {
			needs = true
		}
	})
	if !needs {
		return n, false
	}
	c := n.Clone()
	c.Walk(func(m *Node) {
		if !scanLike(m) {
			return
		}
		m.Preds = dedupPreds(m.Preds)
		if alwaysFalse(m.Preds) {
			m.EstCard = 0
		}
	})
	return c, true
}

// dedupPreds drops conjuncts whose canonical key already appeared,
// preserving order. Returns the input slice unchanged (no copy) when
// nothing is duplicated.
func dedupPreds(preds []query.Pred) []query.Pred {
	dup := false
	for i := 1; i < len(preds) && !dup; i++ {
		for j := 0; j < i; j++ {
			if preds[i].KeyString() == preds[j].KeyString() {
				dup = true
				break
			}
		}
	}
	if !dup {
		return preds
	}
	out := make([]query.Pred, 0, len(preds))
	for _, p := range preds {
		seen := false
		for _, kept := range out {
			if p.KeyString() == kept.KeyString() {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, p)
		}
	}
	return out
}

// JoinKeyDedupPass drops redundant equi-join conditions: a join node
// listing the same column pair twice charges (and checks) the duplicate
// key for nothing. The join graph never emits duplicates, so this fires
// only on externally supplied or hand-built plans.
type JoinKeyDedupPass struct{}

// Name implements RewritePass.
func (JoinKeyDedupPass) Name() string { return "joinkey-dedup" }

// Rewrite implements RewritePass.
func (JoinKeyDedupPass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil {
		return n, false
	}
	needs := false
	n.Walk(func(m *Node) {
		if m.Op.IsJoin() && len(dedupJoins(m.Cond)) != len(m.Cond) {
			needs = true
		}
	})
	if !needs {
		return n, false
	}
	c := n.Clone()
	c.Walk(func(m *Node) {
		if m.Op.IsJoin() {
			m.Cond = dedupJoins(m.Cond)
		}
	})
	return c, true
}

// dedupJoins drops join conditions whose canonical key already appeared,
// preserving order. Returns the input slice unchanged when nothing is
// duplicated.
func dedupJoins(conds []query.Join) []query.Join {
	dup := false
	for i := 1; i < len(conds) && !dup; i++ {
		for j := 0; j < i; j++ {
			if conds[i].KeyString() == conds[j].KeyString() {
				dup = true
				break
			}
		}
	}
	if !dup {
		return conds
	}
	out := make([]query.Join, 0, len(conds))
	for _, jn := range conds {
		seen := false
		for _, kept := range out {
			if jn.KeyString() == kept.KeyString() {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, jn)
		}
	}
	return out
}

// ReannotatePass refreshes every logical node's EstCard from the pass
// context's estimator — after structural passes changed the tree, the
// annotations must describe the tree that will actually run. Nodes whose
// sub-query predicates are provably unsatisfiable annotate 0 without
// consulting the estimator. Enumeration output planned by the same
// estimator re-derives identical values, so the pass is a no-op there.
type ReannotatePass struct{}

// Name implements RewritePass.
func (ReannotatePass) Name() string { return "reannotate" }

// Rewrite implements RewritePass.
func (ReannotatePass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil || pc.Query == nil || pc.Estimate == nil {
		return n, false
	}
	g := query.NewJoinGraph(pc.Query)
	needs := false
	n.WalkLogicalMasks(g, func(m *Node, mask uint64) {
		if m.Op == Exchange {
			return
		}
		if math.Float64bits(reannotateCard(g.Sub(mask), pc)) != math.Float64bits(m.EstCard) {
			needs = true
		}
	})
	if !needs {
		return n, false
	}
	c := n.Clone()
	c.WalkLogicalMasks(g, func(m *Node, mask uint64) {
		if m.Op == Exchange {
			return
		}
		m.EstCard = reannotateCard(g.Sub(mask), pc)
	})
	return c, true
}

// reannotateCard computes the refreshed cardinality of the logical node
// computing sub.
func reannotateCard(sub *query.Query, pc *PassContext) float64 {
	if alwaysFalse(sub.Preds) {
		return 0
	}
	//lqolint:ignore cardclamp PassContext.Estimate is contractually pre-sanitized (the optimizer supplies its own sanitizer); re-clamping would turn a legitimate 0 estimate into 1 and diverge from enumeration-time annotations
	return pc.Estimate(sub)
}

// alwaysFalse reports whether the predicate conjunction is provably
// unsatisfiable. Detection is pairwise and deliberately conservative:
// only violations that hold under both the float and the exact-int64
// matching semantics count (float comparisons round monotonically, so a
// strict float violation implies a strict exact violation; boundary
// equalities are never folded). Unbound placeholder predicates disable
// folding for their column.
func alwaysFalse(preds []query.Pred) bool {
	for i := range preds {
		if !predBound(preds[i]) {
			continue
		}
		if preds[i].Op == query.Between && preds[i].Val.AsFloat() > preds[i].Val2.AsFloat() {
			return true
		}
		for j := 0; j < i; j++ {
			if !predBound(preds[j]) {
				continue
			}
			if preds[i].Alias != preds[j].Alias || preds[i].Column != preds[j].Column {
				continue
			}
			if pairUnsat(preds[i], preds[j]) {
				return true
			}
		}
	}
	return false
}

// predBound reports whether every value the predicate compares against
// is a literal (no unbound placeholders).
func predBound(p query.Pred) bool {
	if p.Param != 0 {
		return false
	}
	return p.Op != query.Between || p.Param2 == 0
}

// pairUnsat reports whether two same-column predicates are mutually
// unsatisfiable.
func pairUnsat(a, b query.Pred) bool {
	// Eq vs Ne on the same value: exact when both literals are exact
	// int64s (the executor compares exactly there), float otherwise.
	if eq, ne, ok := eqNePair(a, b); ok {
		if eq.Val.K != data.Float && ne.Val.K != data.Float {
			return eq.Val.I == ne.Val.I
		}
		return eq.Val.AsFloat() == ne.Val.AsFloat()
	}
	if a.Op == query.Ne || b.Op == query.Ne {
		return false
	}
	lo, hasLo := lowerBound(a)
	if l2, ok := lowerBound(b); ok && (!hasLo || l2 > lo) {
		lo, hasLo = l2, true
	}
	hi, hasHi := upperBound(a)
	if h2, ok := upperBound(b); ok && (!hasHi || h2 < hi) {
		hi, hasHi = h2, true
	}
	return hasLo && hasHi && lo > hi
}

// eqNePair extracts an (Eq, Ne) predicate pair in either order.
func eqNePair(a, b query.Pred) (eq, ne query.Pred, ok bool) {
	switch {
	case a.Op == query.Eq && b.Op == query.Ne:
		return a, b, true
	case a.Op == query.Ne && b.Op == query.Eq:
		return b, a, true
	}
	return a, b, false
}

// lowerBound returns the predicate's closed lower bound (strict
// operators are relaxed to closed, keeping detection conservative).
func lowerBound(p query.Pred) (float64, bool) {
	switch p.Op {
	case query.Eq:
		return p.Val.AsFloat(), true
	case query.Gt, query.Ge:
		return p.Val.AsFloat(), true
	case query.Between:
		return p.Val.AsFloat(), true
	}
	return 0, false
}

// upperBound returns the predicate's closed upper bound.
func upperBound(p query.Pred) (float64, bool) {
	switch p.Op {
	case query.Eq:
		return p.Val.AsFloat(), true
	case query.Lt, query.Le:
		return p.Val.AsFloat(), true
	case query.Between:
		return p.Val2.AsFloat(), true
	}
	return 0, false
}
