package opt

import (
	"context"
	"math/rand"
	"testing"

	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// trueEstimator answers with exact cardinalities via the executor —
// the "oracle" estimator used to isolate enumeration quality.
type trueEstimator struct {
	cache *exec.CardCache
}

func (t *trueEstimator) Estimate(q *query.Query) float64 {
	c, err := t.cache.TrueCard(q)
	if err != nil {
		return 0
	}
	return c
}

type fixture struct {
	cat   *data.Catalog
	cs    *stats.CatalogStats
	ex    *exec.Executor
	cache *exec.CardCache
	opt   *Optimizer
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 3})
	ex := exec.New(cat)
	cache := exec.NewCardCache(ex)
	o := New(cat, cost.New(cs), &trueEstimator{cache})
	return &fixture{cat, cs, ex, cache, o}
}

func chainQuery() *query.Query {
	return &query.Query{
		Refs: []query.TableRef{
			{Alias: "users", Table: "users"},
			{Alias: "posts", Table: "posts"},
			{Alias: "comments", Table: "comments"},
		},
		Joins: []query.Join{
			{LeftAlias: "posts", LeftCol: "owner_user_id", RightAlias: "users", RightCol: "id"},
			{LeftAlias: "comments", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
		},
		Preds: []query.Pred{
			{Alias: "users", Column: "reputation", Op: query.Gt, Val: data.IntVal(100)},
			{Alias: "posts", Column: "score", Op: query.Ge, Val: data.IntVal(1)},
		},
	}
}

func TestOptimizeProducesValidPlan(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	al := p.Aliases()
	if len(al) != 3 {
		t.Fatalf("plan covers %v", al)
	}
	if p.NumJoins() != 2 {
		t.Fatalf("NumJoins = %d", p.NumJoins())
	}
	if f.opt.PlansConsidered() == 0 {
		t.Fatal("no plans considered?")
	}
	// The optimized plan must execute and agree with the canonical plan.
	canonical, _ := exec.CanonicalPlan(q)
	want, err := f.ex.RunCtx(context.Background(), q, canonical)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatalf("optimized plan failed to execute: %v\n%s", err, p)
	}
	if got.Count != want.Count {
		t.Fatalf("optimized plan wrong result: %d vs %d", got.Count, want.Count)
	}
}

func TestDPNotWorseThanGreedy(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	dp, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := f.opt.OptimizeGreedyCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if dp.EstCost > greedy.EstCost*1.0001 {
		t.Fatalf("DP cost %v worse than greedy %v", dp.EstCost, greedy.EstCost)
	}
}

func TestHintsAreRespected(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	h := plan.HintSet{NoHashJoin: true, NoMergeJoin: true}
	p, err := f.opt.WithHints(h).OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.HashJoin || n.Op == plan.MergeJoin {
			t.Fatalf("hint violated: %v present", n.Op)
		}
	})
}

func TestHintsChangeCostNotResult(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	var counts []int64
	for _, h := range plan.BaoHintSets() {
		p, err := f.opt.WithHints(h).OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.ex.RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatalf("hint %s: %v", h, err)
		}
		counts = append(counts, res.Count)
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("hint sets changed results: %v", counts)
		}
	}
}

func TestSingleTableOptimization(t *testing.T) {
	f := newFixture(t)
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "users", Table: "users"}},
		Preds: []query.Pred{
			{Alias: "users", Column: "id", Op: query.Eq, Val: data.IntVal(5)},
		},
	}
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// An equality on an indexed column should pick IndexScan.
	if p.Op != plan.IndexScan {
		t.Fatalf("expected IndexScan, got %v", p.Op)
	}
	// With IndexScan disabled it must fall back.
	p2, err := f.opt.WithHints(plan.HintSet{NoIndexScan: true}).OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Op != plan.SeqScan {
		t.Fatalf("expected SeqScan, got %v", p2.Op)
	}
}

func TestPlanFromOrder(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	p, err := f.opt.PlanFromOrder(q, []string{"comments", "posts", "users"})
	if err != nil {
		t.Fatal(err)
	}
	order := leafOrder(p)
	want := []string{"comments", "posts", "users"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	res, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := exec.CanonicalPlan(q)
	wantRes, _ := f.ex.RunCtx(context.Background(), q, canonical)
	if res.Count != wantRes.Count {
		t.Fatalf("ordered plan wrong: %d vs %d", res.Count, wantRes.Count)
	}
	if _, err := f.opt.PlanFromOrder(q, []string{"users"}); err == nil {
		t.Fatal("partial order should fail")
	}
}

func TestCandidatePlansDistinct(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	plans, err := f.opt.CandidatePlans(context.Background(), q, plan.BaoHintSets())
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no candidates")
	}
	seen := map[string]bool{}
	for _, p := range plans {
		fp := p.Fingerprint()
		if seen[fp] {
			t.Fatal("duplicate candidate plan")
		}
		seen[fp] = true
	}
	// Sorted by estimated cost.
	for i := 1; i < len(plans); i++ {
		if plans[i].EstCost < plans[i-1].EstCost {
			t.Fatal("candidates not sorted by cost")
		}
	}
}

func TestGreedyHandlesManyTables(t *testing.T) {
	f := newFixture(t)
	// Build a 6-table star query around users/posts.
	q := &query.Query{
		Refs: []query.TableRef{
			{Alias: "users", Table: "users"},
			{Alias: "posts", Table: "posts"},
			{Alias: "comments", Table: "comments"},
			{Alias: "votes", Table: "votes"},
			{Alias: "badges", Table: "badges"},
			{Alias: "postHistory", Table: "postHistory"},
		},
		Joins: []query.Join{
			{LeftAlias: "posts", LeftCol: "owner_user_id", RightAlias: "users", RightCol: "id"},
			{LeftAlias: "comments", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
			{LeftAlias: "votes", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
			{LeftAlias: "badges", LeftCol: "user_id", RightAlias: "users", RightCol: "id"},
			{LeftAlias: "postHistory", LeftCol: "post_id", RightAlias: "posts", RightCol: "id"},
		},
		Preds: []query.Pred{
			{Alias: "users", Column: "reputation", Op: query.Gt, Val: data.IntVal(2000)},
			{Alias: "posts", Column: "score", Op: query.Gt, Val: data.IntVal(20)},
			{Alias: "votes", Column: "vote_type", Op: query.Eq, Val: data.IntVal(1)},
		},
	}
	p, err := f.opt.OptimizeGreedyCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Aliases()) != 6 {
		t.Fatalf("greedy covers %v", p.Aliases())
	}
	res, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := exec.CanonicalPlan(q)
	want, err := f.ex.RunCtx(context.Background(), q, canonical)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count {
		t.Fatalf("greedy result %d != %d", res.Count, want.Count)
	}
}

func TestOptimizerWithDisconnectedQuery(t *testing.T) {
	f := newFixture(t)
	q := &query.Query{
		Refs: []query.TableRef{
			{Alias: "badges", Table: "badges"},
			{Alias: "votes", Table: "votes"},
		},
		Preds: []query.Pred{
			{Alias: "badges", Column: "class", Op: query.Eq, Val: data.IntVal(1)},
			{Alias: "votes", Column: "vote_type", Op: query.Eq, Val: data.IntVal(3)},
		},
	}
	p, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Op != plan.NestedLoopJoin {
		t.Fatalf("cross product must be NL, got %v", p.Op)
	}
	if _, err := f.ex.RunCtx(context.Background(), q, p); err != nil {
		t.Fatal(err)
	}
}

func TestRandomQueriesAllPlansAgree(t *testing.T) {
	// Property: for random small queries, DP plans under random hints
	// produce the same executed count as the canonical plan.
	f := newFixture(t)
	rng := rand.New(rand.NewSource(17))
	edges := query.DeriveSchemaEdges(f.cat)
	for trial := 0; trial < 10; trial++ {
		e := edges[rng.Intn(len(edges))]
		q := &query.Query{
			Refs: []query.TableRef{{Alias: e.T1, Table: e.T1}, {Alias: e.T2, Table: e.T2}},
			Joins: []query.Join{
				{LeftAlias: e.T1, LeftCol: e.C1, RightAlias: e.T2, RightCol: e.C2},
			},
		}
		hints := plan.BaoHintSets()
		h := hints[rng.Intn(len(hints))]
		p, err := f.opt.WithHints(h).OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		canonical, _ := exec.CanonicalPlan(q)
		want, err := f.ex.RunCtx(context.Background(), q, canonical)
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.ex.RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count != want.Count {
			t.Fatalf("trial %d: %d != %d", trial, got.Count, want.Count)
		}
	}
}

func TestEmptyQueryErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.opt.OptimizeCtx(context.Background(), &query.Query{}); err == nil {
		t.Fatal("empty query should error")
	}
}

func TestLeftDeepOnlyRestrictsShape(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	ld := *f.opt
	ld.LeftDeepOnly = true
	p, err := ld.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	// Every join's right child must be a scan.
	p.Walk(func(n *plan.Node) {
		if n.Op.IsJoin() && !n.Right.IsLeaf() {
			t.Fatalf("left-deep violated:\n%s", p)
		}
	})
	// Left-deep cost can never beat bushy-optimal.
	bushy, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstCost < bushy.EstCost-1e-9 {
		t.Fatalf("left-deep %v cheaper than bushy %v", p.EstCost, bushy.EstCost)
	}
	// And it must still execute correctly.
	res, err := f.ex.RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	canonical, _ := exec.CanonicalPlan(q)
	want, _ := f.ex.RunCtx(context.Background(), q, canonical)
	if res.Count != want.Count {
		t.Fatalf("left-deep result %d != %d", res.Count, want.Count)
	}
}
