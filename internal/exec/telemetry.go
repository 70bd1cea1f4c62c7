// Plan-level telemetry: the per-operator execution evidence gathered from
// a finished pipeline, and the charge replay that reproduces the
// reference evaluator's CostStats bit-for-bit.
package exec

import (
	"lqo/internal/plan"
)

// PlanTelemetry aggregates every operator's telemetry for one executed
// plan. Ops are in the reference evaluator's charge-accumulation order —
// post-order left-to-right over the plan tree, aggregate sink last — so
// replaying their charges folds WorkUnits in exactly the order the
// reference folded them.
type PlanTelemetry struct {
	Ops    []*OpTelemetry
	byNode map[*plan.Node]*OpTelemetry
}

// snapshotTelemetry copies the telemetry of a finished operator tree
// rooted at the aggregate sink; the operators themselves get recycled.
func snapshotTelemetry(root Operator) *PlanTelemetry {
	pt := &PlanTelemetry{byNode: make(map[*plan.Node]*OpTelemetry)}
	walkOps(root, func(op Operator) {
		t := *op.Telemetry()
		t.charges = t.Charges()
		pt.Ops = append(pt.Ops, &t)
		if t.Node != nil {
			pt.byNode[t.Node] = &t
		}
	})
	return pt
}

// foldInto adds the operator's counters and, in canonical order, its
// charges to st.
func (t *OpTelemetry) foldInto(st *CostStats) {
	st.TuplesRead += t.tuplesRead
	st.TuplesJoined += t.tuplesJoined
	st.IndexLookups += t.indexLookups
	for _, c := range t.charges {
		st.WorkUnits += c
	}
}

// Stats replays every operator's charges in canonical order into one
// CostStats. Because float64 addition is non-associative, the replay
// order — not just the charge values — is what makes WorkUnits
// byte-identical to the pre-pipeline executor.
func (pt *PlanTelemetry) Stats() CostStats {
	var st CostStats
	for _, t := range pt.Ops {
		t.foldInto(&st)
	}
	return st
}

// Blocks sums the zone-map pruning evidence over every operator: how
// many blocks the plan's vectorized scans covered and how many they
// skipped. Both zero for predicate-free plans.
func (pt *PlanTelemetry) Blocks() (total, skipped int64) {
	for _, t := range pt.Ops {
		total += t.BlocksTotal
		skipped += t.BlocksSkipped
	}
	return total, skipped
}

// ByNode returns the telemetry of the operator that executed plan node n.
func (pt *PlanTelemetry) ByNode(n *plan.Node) (*OpTelemetry, bool) {
	t, ok := pt.byNode[n]
	return t, ok
}

// SubtreeWork sums the work units charged to the operators of the plan
// subtree rooted at n — the sub-plan latency label Neo/LEON-style
// drivers train on.
func (pt *PlanTelemetry) SubtreeWork(n *plan.Node) float64 {
	w := 0.0
	n.Walk(func(m *plan.Node) {
		if t, ok := pt.byNode[m]; ok {
			w += t.WorkUnits()
		}
	})
	return w
}
