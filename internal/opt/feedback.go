package opt

import (
	"lqo/internal/plan"
	"lqo/internal/query"
)

// CardLabel is one harvested truth: a sub-query's canonical key and the
// cardinality execution measured for it.
type CardLabel struct {
	Key  string
	Card float64
}

// HarvestCards harvests execution feedback from an executed,
// TrueCard-annotated plan: one exact cardinality per sub-plan, keyed by
// the sub-query's canonical key, in plan pre-order — a fixed order, so a
// bounded store fed from it fills the same way every run.
//
// The plan must come from a successful execution (every node annotated);
// a successful run annotates the whole tree, so a zero TrueCard means a
// genuinely empty intermediate, which is itself valuable feedback.
func HarvestCards(q *query.Query, p *plan.Node) []CardLabel {
	g := query.NewJoinGraph(q)
	labels := make([]CardLabel, 0, 2*len(q.Refs))
	p.WalkLogicalMasks(g, func(n *plan.Node, mask uint64) {
		labels = append(labels, CardLabel{Key: g.Key(mask), Card: n.TrueCard})
	})
	return labels
}

// CardsFromPlan is HarvestCards as a map. The result plugs straight into
// an injected estimator (PilotScope's PushCards), so the next
// optimization of the same query — or any query sharing sub-plans — plans
// with true cardinalities where they are known.
func CardsFromPlan(q *query.Query, p *plan.Node) map[string]float64 {
	labels := HarvestCards(q, p)
	cards := make(map[string]float64, len(labels))
	for _, l := range labels {
		cards[l.Key] = l.Card
	}
	return cards
}
