// Default rewrite passes: constant / always-false predicate folding, plus
// scan sharding (shard.go) when a fan-out is configured. Each pass is pure
// (clone-on-write) and idempotent. Enumeration output already carries
// every alias's filters on its scans, one condition per join key and the
// estimator's annotations, so on a well-formed query no pass but
// shard-scans fires: the pipeline reaches fixpoint in one round and an
// unsharded plan stays fingerprint-identical to the enumerator's.
package plan

import (
	"context"
	"math"

	"lqo/internal/data"
	"lqo/internal/query"
)

// DefaultPasses returns the standard pass list: constfold, plus
// shard-scans when numShards >= 2 — the promql-engine
// DefaultOptimizers(numShards) idiom.
func DefaultPasses(numShards int) []RewritePass {
	passes := []RewritePass{ConstFoldPass{}}
	if numShards >= 2 {
		passes = append(passes, ShardScans(numShards))
	}
	return passes
}

// DefaultPipeline returns a PassPipeline over DefaultPasses(numShards).
func DefaultPipeline(numShards int) *PassPipeline {
	return &PassPipeline{Passes: DefaultPasses(numShards)}
}

// ConstFoldPass folds constant predicate structure: exact duplicate
// conjuncts on a scan are dropped (first occurrence wins), and a scan
// whose predicate set is provably unsatisfiable computes the empty
// result, so it and every join above it are annotated with EstCard 0. Costs keep their enumeration
// values. Detection is conservative — only definite contradictions under
// the executor's matching semantics fold (see alwaysFalse).
type ConstFoldPass struct{}

// Name implements RewritePass.
func (ConstFoldPass) Name() string { return "constfold" }

// Rewrite implements RewritePass.
func (ConstFoldPass) Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool) {
	if ctx.Err() != nil {
		return n, false
	}
	if _, needs := fold(n, false); !needs {
		return n, false
	}
	c := n.Clone()
	fold(c, true)
	return c, true
}

// fold walks the subtree bottom-up and reports whether it computes the
// empty result and whether folding changes it: a duplicate conjunct to
// drop or an EstCard to zero. With apply set it makes those changes in
// place, so it is only ever applied to a clone.
func fold(n *Node, apply bool) (empty, changes bool) {
	if n == nil {
		return false, false
	}
	left, lc := fold(n.Left, apply)
	right, rc := fold(n.Right, apply)
	changes = lc || rc
	switch {
	case n.IsLeaf():
		preds := dedupPreds(n.Preds)
		if len(preds) != len(n.Preds) {
			changes = true
			if apply {
				n.Preds = preds
			}
		}
		empty = alwaysFalse(preds)
	case n.Op.IsJoin():
		empty = left || right
	}
	if empty && math.Float64bits(n.EstCard) != 0 {
		changes = true
		if apply {
			n.EstCard = 0
		}
	}
	return empty, changes
}

// dedupPreds drops conjuncts whose canonical key already appeared,
// preserving order. Returns the input slice unchanged (no copy) when
// nothing is duplicated.
func dedupPreds(preds []query.Pred) []query.Pred {
	var out []query.Pred // nil until the first duplicate
	for i, p := range preds {
		dup := false
		for _, kept := range preds[:i] {
			if p.KeyString() == kept.KeyString() {
				dup = true
				break
			}
		}
		switch {
		case dup && out == nil:
			out = append(make([]query.Pred, 0, len(preds)), preds[:i]...)
		case !dup && out != nil:
			out = append(out, p)
		}
	}
	if out == nil {
		return preds
	}
	return out
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
	case query.Eq, query.Gt, query.Ge, query.Between:
		return p.Val.AsFloat(), true
	}
	return 0, false
}

// upperBound returns the predicate's closed upper bound.
func upperBound(p query.Pred) (float64, bool) {
	switch p.Op {
	case query.Eq, query.Lt, query.Le:
		return p.Val.AsFloat(), true
	case query.Between:
		return p.Val2.AsFloat(), true
	}
	return 0, false
}
