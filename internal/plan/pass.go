// Composable plan-rewrite pass framework: planning is an ordered list of
// pure rewrite passes over the physical plan, run to fixpoint with a
// per-pass trace — the promql-engine DefaultOptimizers(numShards) idiom.
// Join enumeration (internal/opt) produces the initial tree; every
// subsequent transformation (predicate folding, sharding, and any future
// rewrite) is a ~100-line RewritePass instead of planner surgery.
package plan

import (
	"context"
	"fmt"

	"lqo/internal/query"
)

// PassContext carries the query-level state rewrite passes may consult.
// Passes must treat every field as read-only. No default pass reads a
// field, and the optimizer leaves both nil; a custom pass that reads one
// must be a no-op when it is nil.
type PassContext struct {
	// Query is the logical query the plan computes.
	Query *query.Query

	// Estimate supplies sanitized cardinality estimates for sub-queries:
	// no NaN, no negatives, capped at metrics.MaxCard.
	Estimate func(*query.Query) float64
}

// RewritePass is one pure plan-to-plan transformation. Rewrite returns
// the (possibly new) root and whether anything changed. Purity contract:
// the input tree must never be mutated — a firing pass clones what it
// changes (clone-on-write), so callers can hold references to the input
// across the call. A pass must also be idempotent: running it twice on
// its own output must not fire again, or the pipeline cannot reach
// fixpoint.
type RewritePass interface {
	Name() string
	Rewrite(ctx context.Context, n *Node, pc *PassContext) (*Node, bool)
}

// PassTrace records one pass execution for plan provenance: which pass,
// in which fixpoint round, whether it fired, and the node-count delta —
// the evidence EXPLAIN renders so rewrites are debuggable from the shell.
type PassTrace struct {
	Pass        string
	Round       int
	Fired       bool
	NodesBefore int
	NodesAfter  int
}

// String renders one trace line, e.g. "constfold: fired (3 nodes)".
func (t PassTrace) String() string {
	if !t.Fired {
		return fmt.Sprintf("%s: -", t.Pass)
	}
	if t.NodesBefore == t.NodesAfter {
		return fmt.Sprintf("%s: fired (%d nodes)", t.Pass, t.NodesAfter)
	}
	return fmt.Sprintf("%s: fired (%d -> %d nodes)", t.Pass, t.NodesBefore, t.NodesAfter)
}

// PassPipeline runs an ordered list of rewrite passes to fixpoint. The
// zero value is a valid empty pipeline (identity transform).
type PassPipeline struct {
	Passes []RewritePass
}

// maxRounds bounds the fixpoint iteration as a defense against a
// non-idempotent pass pair oscillating forever; the defaults converge
// in 2.
const maxRounds = 8

// Run applies the pipeline's passes in order, repeating rounds until a
// full round fires no pass (fixpoint) or maxRounds is hit. It returns
// the rewritten plan and the per-pass trace. The input tree is never
// mutated (every pass is clone-on-write); when nothing fires the input
// root is returned unchanged.
func (pl *PassPipeline) Run(ctx context.Context, root *Node, pc *PassContext) (*Node, []PassTrace, error) {
	if pc == nil {
		pc = &PassContext{}
	}
	var trace []PassTrace
	for round := 1; round <= maxRounds; round++ {
		fired := false
		for _, p := range pl.Passes {
			if err := ctx.Err(); err != nil {
				return nil, trace, err
			}
			before := countNodes(root)
			next, changed := p.Rewrite(ctx, root, pc)
			if next == nil {
				next, changed = root, false
			}
			trace = append(trace, PassTrace{
				Pass:        p.Name(),
				Round:       round,
				Fired:       changed,
				NodesBefore: before,
				NodesAfter:  countNodes(next),
			})
			if changed {
				fired = true
				root = next
			}
		}
		if !fired {
			return root, trace, nil
		}
	}
	return root, trace, nil
}

func countNodes(n *Node) int {
	k := 0
	n.Walk(func(*Node) { k++ })
	return k
}
