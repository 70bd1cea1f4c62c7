package adapt

import (
	"context"
	"math"
	"testing"

	"lqo/internal/query"
	"lqo/internal/workload"
)

// TestSwappableGraphFollowsPublishedModel: the Swappable answers a join
// graph, mask for mask as its Estimate does, while the published model
// can; after a model without the graph method is published it declines,
// and the planner asks that model per mask; a graph-capable model
// published again answers again.
func TestSwappableGraphFollowsPublishedModel(t *testing.T) {
	f := newFixture(t)
	q := workload.GenWorkload(f.cat, workload.Options{Seed: 3, Count: 1, MinJoins: 3, MaxJoins: 3})[0]
	g := query.NewJoinGraph(q)
	cards := make([]float64, 1<<len(g.Aliases))
	answers := func(want bool) {
		t.Helper()
		if got := f.sw.EstimateGraph(g, cards); got != want {
			t.Fatalf("EstimateGraph answered %v, want %v", got, want)
		}
		for m := 0; want && m < len(cards); m++ {
			if e := f.sw.Estimate(g.Sub(uint64(m))); math.Float64bits(cards[m]) != math.Float64bits(e) {
				t.Fatalf("mask %b: graph %v, Estimate %v", m, cards[m], e)
			}
		}
	}
	answers(true)
	f.sw.Publish(garbageEstimator{card: 5})
	answers(false)
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCard != 5 {
		t.Fatalf("planned through the published model: root estimate %v, want 5", p.EstCard)
	}
	f.sw.Publish(f.hist)
	answers(true)
}
