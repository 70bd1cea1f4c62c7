package exec

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// bruteForceCount evaluates q by enumerating the full cross product —
// the executable specification the executor must agree with.
func bruteForceCount(cat *data.Catalog, q *query.Query) int64 {
	type state struct {
		rows map[string]int
	}
	aliases := q.Aliases()
	var count int64
	var rec func(i int, rows map[string]int)
	rec = func(i int, rows map[string]int) {
		if i == len(aliases) {
			for _, j := range q.Joins {
				lt := cat.Table(q.TableOf(j.LeftAlias))
				rt := cat.Table(q.TableOf(j.RightAlias))
				lv := lt.Column(j.LeftCol).Float(rows[j.LeftAlias])
				rv := rt.Column(j.RightCol).Float(rows[j.RightAlias])
				if lv != rv {
					return
				}
			}
			for _, p := range q.Preds {
				t := cat.Table(q.TableOf(p.Alias))
				if !p.Matches(t.Column(p.Column).Float(rows[p.Alias])) {
					return
				}
			}
			count++
			return
		}
		a := aliases[i]
		t := cat.Table(q.TableOf(a))
		for r := 0; r < t.NumRows(); r++ {
			rows[a] = r
			rec(i+1, rows)
		}
	}
	rec(0, map[string]int{})
	_ = state{}
	return count
}

// smallCatalog builds a 3-table catalog tiny enough for brute force.
func smallCatalog(seed int64) *data.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := data.NewCatalog()
	mk := func(name string, n int, fkTo string, fkMax int) *data.Table {
		id := &data.Column{Name: "id", Kind: data.Int}
		v := &data.Column{Name: "v", Kind: data.Int}
		t := data.NewTable(name, id, v)
		var fk *data.Column
		if fkTo != "" {
			fk = &data.Column{Name: fkTo + "_id", Kind: data.Int}
			t.AddColumn(fk)
		}
		for i := 0; i < n; i++ {
			id.AppendInt(int64(i))
			v.AppendInt(int64(rng.Intn(6)))
			if fk != nil {
				fk.AppendInt(int64(rng.Intn(fkMax)))
			}
		}
		cat.Add(t)
		return t
	}
	a := mk("a", 12, "", 0)
	b := mk("b", 15, "a", 12)
	c := mk("c", 10, "b", 15)
	for _, idx := range []struct {
		t   *data.Table
		col string
	}{{a, "id"}, {a, "v"}, {b, "id"}, {b, "a_id"}, {c, "id"}, {c, "b_id"}} {
		if _, err := idx.t.BuildIndex(idx.col); err != nil {
			panic(err)
		}
	}
	return cat
}

func chainQuery() *query.Query {
	return &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "b", Table: "b"}, {Alias: "c", Table: "c"}},
		Joins: []query.Join{
			{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"},
			{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "b_id"},
		},
		Preds: []query.Pred{
			{Alias: "a", Column: "v", Op: query.Le, Val: data.IntVal(3)},
			{Alias: "c", Column: "v", Op: query.Gt, Val: data.IntVal(1)},
		},
	}
}

func TestCanonicalPlanMatchesBruteForce(t *testing.T) {
	cat := smallCatalog(7)
	q := chainQuery()
	want := bruteForceCount(cat, q)
	p, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("Count = %d, want %d", res.Count, want)
	}
	if res.Stats.WorkUnits <= 0 {
		t.Fatal("no work charged")
	}
}

func TestAllJoinOperatorsAgree(t *testing.T) {
	cat := smallCatalog(11)
	q := chainQuery()
	want := bruteForceCount(cat, q)
	scan := func(alias string) *plan.Node {
		return plan.NewScan(plan.SeqScan, alias, alias, q.PredsOn(alias))
	}
	j1 := query.Join{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}
	j2 := query.Join{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "b_id"}
	ops := []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin}
	for _, op1 := range ops {
		for _, op2 := range ops {
			p := plan.NewJoin(op2,
				plan.NewJoin(op1, scan("a"), scan("b"), []query.Join{j1}),
				scan("c"), []query.Join{j2})
			res, err := New(cat).RunCtx(context.Background(), q, p)
			if err != nil {
				t.Fatalf("%v/%v: %v", op1, op2, err)
			}
			if res.Count != want {
				t.Fatalf("%v/%v: Count = %d, want %d", op1, op2, res.Count, want)
			}
		}
	}
}

func TestJoinOrderAndShapeInvariance(t *testing.T) {
	cat := smallCatalog(13)
	q := chainQuery()
	want := bruteForceCount(cat, q)
	scan := func(alias string) *plan.Node {
		return plan.NewScan(plan.SeqScan, alias, alias, q.PredsOn(alias))
	}
	j1 := query.Join{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"}
	j2 := query.Join{LeftAlias: "b", LeftCol: "id", RightAlias: "c", RightCol: "b_id"}
	// Right-deep: a ⋈ (b ⋈ c).
	rightDeep := plan.NewJoin(plan.HashJoin,
		scan("a"),
		plan.NewJoin(plan.HashJoin, scan("b"), scan("c"), []query.Join{j2}),
		[]query.Join{j1})
	res, err := New(cat).RunCtx(context.Background(), q, rightDeep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("right-deep Count = %d, want %d", res.Count, want)
	}
	// Swapped operands.
	swapped := plan.NewJoin(plan.HashJoin,
		plan.NewJoin(plan.HashJoin, scan("b"), scan("a"), []query.Join{j1}),
		scan("c"), []query.Join{j2})
	res2, err := New(cat).RunCtx(context.Background(), q, swapped)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Count != want {
		t.Fatalf("swapped Count = %d, want %d", res2.Count, want)
	}
}

func TestIndexScanMatchesSeqScan(t *testing.T) {
	cat := smallCatalog(17)
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "a", Table: "a"}},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Eq, Val: data.IntVal(2)}},
	}
	seq := plan.NewScan(plan.SeqScan, "a", "a", q.Preds)
	idx := plan.NewScan(plan.IndexScan, "a", "a", q.Preds)
	ex := New(cat)
	r1, err := ex.RunCtx(context.Background(), q, seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.RunCtx(context.Background(), q, idx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Count != r2.Count {
		t.Fatalf("seq %d != index %d", r1.Count, r2.Count)
	}
	if r2.Stats.TuplesRead >= r1.Stats.TuplesRead {
		t.Fatalf("index scan should read fewer tuples: %d vs %d", r2.Stats.TuplesRead, r1.Stats.TuplesRead)
	}
}

func TestIndexScanWithoutIndexFails(t *testing.T) {
	cat := smallCatalog(19)
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "a", Table: "a"}},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(2)}},
	}
	idx := plan.NewScan(plan.IndexScan, "a", "a", q.Preds)
	if _, err := New(cat).RunCtx(context.Background(), q, idx); err == nil {
		t.Fatal("IndexScan without equality predicate should fail")
	}
}

func TestCrossProduct(t *testing.T) {
	cat := smallCatalog(23)
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "c", Table: "c"}},
	}
	p := plan.NewJoin(plan.NestedLoopJoin,
		plan.NewScan(plan.SeqScan, "a", "a", nil),
		plan.NewScan(plan.SeqScan, "c", "c", nil), nil)
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 120 { // 12 * 10
		t.Fatalf("cross product = %d, want 120", res.Count)
	}
	// Hash join cannot run a cross product.
	bad := plan.NewJoin(plan.HashJoin,
		plan.NewScan(plan.SeqScan, "a", "a", nil),
		plan.NewScan(plan.SeqScan, "c", "c", nil), nil)
	if _, err := New(cat).RunCtx(context.Background(), q, bad); err == nil {
		t.Fatal("hash join cross product should fail")
	}
}

func TestIntermediateCap(t *testing.T) {
	cat := smallCatalog(29)
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "c", Table: "c"}},
	}
	p := plan.NewJoin(plan.NestedLoopJoin,
		plan.NewScan(plan.SeqScan, "a", "a", nil),
		plan.NewScan(plan.SeqScan, "c", "c", nil), nil)
	ex := New(cat)
	ex.MaxIntermediate = 50
	if _, err := ex.RunCtx(context.Background(), q, p); err == nil {
		t.Fatal("cap should trigger")
	}
}

// TestTrueCardAnnotations: RunCtx leaves the plan unwritten and returns
// the run's record, one card per node in pre-order with the root's the
// result count; RunAnalyze annotates the tree it is given from the same
// record.
func TestTrueCardAnnotations(t *testing.T) {
	cat := smallCatalog(31)
	q := chainQuery()
	p, _ := CanonicalPlan(q)
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cards) != len(p.Nodes()) || res.Cards[0] != float64(res.Count) {
		t.Fatalf("Cards %v for %d nodes, count %d", res.Cards, len(p.Nodes()), res.Count)
	}
	for _, c := range p.TrueCards() {
		if c != 0 {
			t.Fatalf("RunCtx annotated the plan: %v", p.TrueCards())
		}
	}
	ares, _, err := New(cat).RunAnalyze(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ares.Cards, res.Cards) || !slices.Equal(p.TrueCards(), res.Cards) {
		t.Fatalf("RunAnalyze annotated %v, record %v, RunCtx's %v", p.TrueCards(), ares.Cards, res.Cards)
	}
}

func TestCardCache(t *testing.T) {
	cat := smallCatalog(37)
	cache := NewCardCache(New(cat))
	q := chainQuery()
	c1, err := cache.TrueCard(q)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cache.TrueCard(q.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("cache inconsistent: %v vs %v", c1, c2)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache size = %d, want 1", cache.Len())
	}
	if c1 != float64(bruteForceCount(cat, q)) {
		t.Fatalf("TrueCard = %v, brute force = %d", c1, bruteForceCount(cat, q))
	}
	// A different query is one more entry: a miss caches exactly its own
	// cardinality, no sub-plan labels.
	q2 := chainQuery()
	q2.Preds[0].Val = data.IntVal(2)
	c3, err := cache.TrueCard(q2)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != float64(bruteForceCount(cat, q2)) {
		t.Fatalf("second TrueCard = %v, brute force = %d", c3, bruteForceCount(cat, q2))
	}
	if cache.Len() != 2 {
		t.Fatalf("cache size after a second query = %d, want 2", cache.Len())
	}
}

func TestRandomPlansAgreeOnGeneratedData(t *testing.T) {
	// Property-style: on a real generated catalog, canonical plans for
	// random sub-chains agree with brute force on small instances.
	cat := smallCatalog(41)
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		q := &query.Query{
			Refs: []query.TableRef{{Alias: "a", Table: "a"}, {Alias: "b", Table: "b"}},
			Joins: []query.Join{
				{LeftAlias: "a", LeftCol: "id", RightAlias: "b", RightCol: "a_id"},
			},
			Preds: []query.Pred{
				{Alias: "a", Column: "v", Op: query.CmpOp(rng.Intn(6)), Val: data.IntVal(int64(rng.Intn(6)))},
			},
		}
		want := bruteForceCount(cat, q)
		p, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want {
			t.Fatalf("trial %d (%s): Count = %d, want %d", trial, q.SQL(), res.Count, want)
		}
	}
}

func TestGeneratedCatalogsExecute(t *testing.T) {
	for _, mk := range []func(datagen.Config) *data.Catalog{datagen.StatsCEB, datagen.JOBLite, datagen.TPCHLite} {
		cat := mk(datagen.Config{Seed: 1, Scale: 0.05})
		for _, tn := range cat.TableNames() {
			if err := cat.Table(tn).Validate(); err != nil {
				t.Fatal(err)
			}
		}
		edges := query.DeriveSchemaEdges(cat)
		if len(edges) == 0 {
			t.Fatal("no schema edges derived")
		}
		e := edges[0]
		q := &query.Query{
			Refs: []query.TableRef{{Alias: e.T1, Table: e.T1}, {Alias: e.T2, Table: e.T2}},
			Joins: []query.Join{
				{LeftAlias: e.T1, LeftCol: e.C1, RightAlias: e.T2, RightCol: e.C2},
			},
		}
		p, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count <= 0 {
			t.Fatalf("FK join produced %d rows — generator referential integrity broken", res.Count)
		}
	}
}

// TestJoinSchemasArePruned: every operator emits only the columns its
// consumer reads. Under COUNT(*) the root join of the chain a-b-c emits
// none and the lower join only b, the alias its parent joins on; an
// aggregate's alias rides up from its leaf through both joins. The
// layouts are read off the plan's Binding, which the operators follow.
func TestJoinSchemasArePruned(t *testing.T) {
	cat := smallCatalog(5)
	for _, c := range []struct {
		agg         query.Agg
		root, lower []string
	}{
		{query.Agg{}, nil, []string{"b"}},
		{query.Agg{Kind: query.AggSum, Alias: "a", Column: "v"}, []string{"a"}, []string{"a", "b"}},
	} {
		q := chainQuery()
		q.Agg = c.agg
		p, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(cat).Bind(cat, q, p)
		if err != nil {
			t.Fatal(err)
		}
		layouts := boundLayouts(b, p) // pre-order: the root, then its left input
		if got := layouts[0]; !slices.Equal(got, c.root) {
			t.Errorf("%s: root join schema %v, want %v", c.agg, got, c.root)
		}
		if got := layouts[1]; !slices.Equal(got, c.lower) {
			t.Errorf("%s: lower join schema %v, want %v", c.agg, got, c.lower)
		}
	}
}

// boundLayouts returns the aliases each node of p emits under b, in
// pre-order: a scan its own when it emits, a join its sources'.
func boundLayouts(b *Binding, p *plan.Node) [][]string {
	var out [][]string
	var walk func(n *plan.Node) []string
	walk = func(n *plan.Node) []string {
		i := len(out)
		out = append(out, nil)
		nb := b.nodes[i]
		if n.IsLeaf() {
			if nb.emits {
				out[i] = []string{n.Alias}
			}
			return out[i]
		}
		ls, rs := walk(n.Left), walk(n.Right)
		for _, src := range view(b.srcs, nb.srcs) {
			if src.left {
				out[i] = append(out[i], ls[src.pos])
			} else {
				out[i] = append(out[i], rs[src.pos])
			}
		}
		return out[i]
	}
	walk(p)
	return out
}
