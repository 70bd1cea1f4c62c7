package opt

import (
	"lqo/internal/plan"
	"lqo/internal/query"
)

// CardLabel is one harvested truth: a sub-query's canonical key, its
// query.JoinGraph.KeyHash, and the cardinality execution measured for it.
type CardLabel struct {
	Key  string
	Hash uint64
	Card float64
}

// HarvestCards harvests execution feedback from one run of plan p for
// g's query:
// one exact cardinality per sub-plan, keyed by the sub-query's canonical
// key, in plan pre-order — a fixed order, so a bounded store fed from it
// fills the same way every run. cards is the run's record, cards[i] the
// true cardinality of p's i-th node in pre-order (exec.Result.Cards); p
// is only read, so it may be a cached plan other runs share.
//
// A successful run records every node, so a zero card means a genuinely
// empty intermediate, which is itself valuable feedback.
func HarvestCards(g *query.JoinGraph, p *plan.Node, cards []float64) []CardLabel {
	labels := make([]CardLabel, 0, len(cards))
	p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
		labels = append(labels, CardLabel{Key: g.Key(mask), Hash: g.KeyHash(mask), Card: cards[len(labels)]})
	})
	return labels
}

// CardsFromPlan is HarvestCards as a map, read off a TrueCard-annotated
// plan (exec's RunAnalyze). The result plugs straight into an injected
// estimator (PilotScope's PushCards), so the next optimization of the
// same query — or any query sharing sub-plans — plans with true
// cardinalities where they are known.
func CardsFromPlan(q *query.Query, p *plan.Node) map[string]float64 {
	labels := HarvestCards(query.NewJoinGraph(q), p, p.TrueCards())
	cards := make(map[string]float64, len(labels))
	for _, l := range labels {
		cards[l.Key] = l.Card
	}
	return cards
}
