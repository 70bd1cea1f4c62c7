package opt

import (
	"context"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// TestCardsFromPlan checks the execution-feedback loop: after running a
// plan, every sub-plan's harvested cardinality must equal the true
// cardinality of its sub-query, so the map can be pushed back into an
// injected estimator without distorting anything. The plans are the
// chain query's optimized plan and, for generated queries of three or
// more tables, both the optimized and the canonical left-deep plan.
func TestCardsFromPlan(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	checkPlan := func(q *query.Query, p *plan.Node) {
		t.Helper()
		res, _, err := f.ex.RunAnalyze(ctx, q, p)
		if err != nil {
			t.Fatal(err)
		}
		cards := CardsFromPlan(q, p)
		for i, l := range HarvestCards(q, p, res.Cards) {
			if cards[l.Key] != l.Card || l.Card != res.Cards[i] {
				t.Fatalf("%s: record harvest %v disagrees with the annotated tree's %v", q.SQL(), l, cards[l.Key])
			}
		}
		nodes := p.Nodes()
		if len(cards) != len(nodes) {
			t.Fatalf("%s: harvested %d cards from %d plan nodes", q.SQL(), len(cards), len(nodes))
		}
		if got := cards[q.Key()]; got != float64(res.Count) {
			t.Fatalf("%s: root card = %v, result count = %d", q.SQL(), got, res.Count)
		}
		for _, n := range nodes {
			sub := n.Subquery(q)
			got, ok := cards[sub.Key()]
			if !ok {
				t.Fatalf("%s: no card for sub-plan %v", q.SQL(), n.Aliases())
			}
			want, err := f.cache.TrueCard(sub)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s: sub-plan %v: harvested %v, true %v", q.SQL(), n.Aliases(), got, want)
			}
		}
	}

	p, err := f.opt.OptimizeCtx(ctx, chainQuery())
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(chainQuery(), p)

	checked := 0
	for _, q := range workload.GenWorkload(f.cat, workload.Options{Seed: 17, Count: 8, MaxJoins: 3, MaxPreds: 2}) {
		if len(q.Refs) < 3 {
			continue
		}
		optimized, err := f.opt.OptimizeCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		canonical, err := exec.CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(q, optimized)
		checkPlan(q, canonical)
		checked++
	}
	if checked == 0 {
		t.Fatal("workload generated no query of three or more tables")
	}
}

// TestCardsFromPlanCloseLoop replans with the harvested cardinalities
// injected and checks the optimizer accepts them: the replanned query
// must still cover all aliases and cost no more than the first plan
// under the oracle estimator.
func TestCardsFromPlanCloseLoop(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ex.RunAnalyze(context.Background(), q, p); err != nil {
		t.Fatal(err)
	}
	cards := CardsFromPlan(q, p)
	fed := f.opt.WithEstimator(mapEstimator(cards))
	p2, err := fed.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2.Aliases()) != len(q.Refs) {
		t.Fatalf("replanned plan covers %v", p2.Aliases())
	}
	// The fed optimizer saw exact cardinalities for every sub-plan the
	// executed tree contained; its plan must execute to the same count.
	res2, err := f.ex.RunCtx(context.Background(), q, p2)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Count != res2.Count {
		t.Fatalf("counts diverged: %d vs %d", res1.Count, res2.Count)
	}
}

// mapEstimator serves harvested cardinalities and answers 1 elsewhere.
type mapEstimator map[string]float64

func (m mapEstimator) Estimate(q *query.Query) float64 {
	if c, ok := m[q.Key()]; ok {
		return c
	}
	return 1
}

// TestCardsFromPlanAfterDrift pins the stale-plan harvest contract the
// serving layer and the adaptation loop both rely on: a plan optimized
// BEFORE catalog drift, re-executed after the data moved under it, must
// harvest the POST-drift truth for every sub-plan — the harvest reflects
// what execution actually saw, never the estimates or the pre-drift world,
// so feedback from stale plans self-corrects instead of poisoning replans.
func TestCardsFromPlanAfterDrift(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.ex.RunAnalyze(context.Background(), q, p); err != nil {
		t.Fatal(err)
	}
	before := CardsFromPlan(q, p)

	datagen.ApplyDrift(f.cat, datagen.DriftOptions{Seed: 41, Fraction: 0.8, ValueSkew: 2, DomainShift: 0.4})

	// Same (now stale) plan tree, re-executed against the drifted catalog.
	res, _, err := f.ex.RunAnalyze(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	after := CardsFromPlan(q, p)
	if len(after) != len(before) {
		t.Fatalf("harvest shape changed across drift: %d vs %d keys", len(after), len(before))
	}
	if got := after[q.Key()]; got != float64(res.Count) {
		t.Fatalf("root card = %v, drifted result count = %d", got, res.Count)
	}
	// Every harvested value equals the drifted truth, verified against a
	// fresh truth cache over the drifted catalog.
	fresh := exec.NewCardCache(f.ex)
	changed := false
	for _, n := range p.Nodes() {
		sub := n.Subquery(q)
		want, err := fresh.TrueCard(sub)
		if err != nil {
			t.Fatal(err)
		}
		if after[sub.Key()] != want {
			t.Errorf("sub-plan %v: harvested %v, drifted truth %v", n.Aliases(), after[sub.Key()], want)
		}
		if after[sub.Key()] != before[sub.Key()] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("drift changed no sub-plan cardinality; scenario vacuous")
	}
}
