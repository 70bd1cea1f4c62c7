package adapt

import (
	"context"
	"math"
	"testing"

	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// TestSwappableGraphFollowsPublishedModel: the Swappable answers a join
// graph mask for mask as its Estimate does, whichever model is
// published: a graph-capable one, a per-mask one (which the planner then
// plans through), and a graph-capable one published again.
func TestSwappableGraphFollowsPublishedModel(t *testing.T) {
	f := newFixture(t)
	q := workload.GenWorkload(f.cat, workload.Options{Seed: 3, Count: 1, MinJoins: 3, MaxJoins: 3})[0]
	g := query.NewJoinGraph(q)
	cards := make([]float64, 1<<len(g.Aliases))
	answers := func() {
		t.Helper()
		if err := f.sw.EstimateGraph(context.Background(), g, cards); err != nil {
			t.Fatal(err)
		}
		for m := 1; m < len(cards); m++ {
			if e := f.sw.Estimate(g.Sub(uint64(m))); math.Float64bits(cards[m]) != math.Float64bits(e) {
				t.Fatalf("%T mask %b: graph %v, Estimate %v", f.sw.Current(), m, cards[m], e)
			}
		}
	}
	answers()
	f.sw.Publish(garbageEstimator{card: 5})
	answers()
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCard != 5 {
		t.Fatalf("planned through the published model: root estimate %v, want 5", p.EstCard)
	}
	f.sw.Publish(f.hist)
	answers()
}

// publishingEstimator is a per-mask model that answers card and, from
// inside its first Estimate, publishes next into sw, as the adaptation
// loop may while a request plans.
type publishingEstimator struct {
	sw    *Swappable
	next  opt.CardEstimator
	card  float64
	calls int
}

func (p *publishingEstimator) Estimate(q *query.Query) float64 {
	if p.calls == 0 {
		p.sw.Publish(p.next)
	}
	p.calls++
	return p.card
}

// TestSwappablePublishMidPlanKeepsOneModel: a plan started under one
// model takes every mask's estimate from it even when another model is
// published while it plans — the first model is asked about every
// non-empty mask once, and every node of the plan carries its answer.
func TestSwappablePublishMidPlanKeepsOneModel(t *testing.T) {
	f := newFixture(t)
	q := workload.GenWorkload(f.cat, workload.Options{Seed: 3, Count: 1, MinJoins: 3, MaxJoins: 3})[0]
	masks := 1<<len(query.NewJoinGraph(q).Aliases) - 1
	first := &publishingEstimator{sw: f.sw, next: garbageEstimator{card: 9}, card: 5}
	f.sw.Publish(first)
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if first.calls != masks {
		t.Errorf("the first model answered %d masks, want all %d", first.calls, masks)
	}
	for _, n := range p.Nodes() {
		if n.EstCard != 5 {
			t.Fatalf("%s node estimated %v, want the first model's 5", n.Op, n.EstCard)
		}
	}

	g := query.NewJoinGraph(q)
	cards := make([]float64, 1<<len(g.Aliases))
	first.calls = 0
	f.sw.Publish(first)
	if err := f.sw.EstimateGraph(context.Background(), g, cards); err != nil {
		t.Fatal(err)
	}
	for m := 1; m < len(cards); m++ {
		if cards[m] != 5 {
			t.Fatalf("mask %b: graph %v, want the first model's 5", m, cards[m])
		}
	}
}
