package query

import (
	"reflect"
	"strings"
	"testing"

	"lqo/internal/data"
)

func twoTableCatalog() *data.Catalog {
	cat := data.NewCatalog()
	a := &data.Column{Name: "id", Kind: data.Int}
	b := &data.Column{Name: "x", Kind: data.Int}
	for i := 0; i < 5; i++ {
		a.AppendInt(int64(i))
		b.AppendInt(int64(i * 2))
	}
	cat.Add(data.NewTable("t1", a, b))
	c := &data.Column{Name: "id", Kind: data.Int}
	d := &data.Column{Name: "t1_id", Kind: data.Int}
	for i := 0; i < 5; i++ {
		c.AppendInt(int64(i))
		d.AppendInt(int64(i))
	}
	cat.Add(data.NewTable("t2", c, d))
	return cat
}

func sampleQuery() *Query {
	return &Query{
		Refs: []TableRef{{Alias: "t1", Table: "t1"}, {Alias: "t2", Table: "t2"}},
		Joins: []Join{{
			LeftAlias: "t1", LeftCol: "id", RightAlias: "t2", RightCol: "t1_id",
		}},
		Preds: []Pred{{Alias: "t1", Column: "x", Op: Gt, Val: data.IntVal(3)}},
	}
}

func TestPredMatches(t *testing.T) {
	cases := []struct {
		p    Pred
		v    float64
		want bool
	}{
		{Pred{Op: Eq, Val: data.IntVal(5)}, 5, true},
		{Pred{Op: Eq, Val: data.IntVal(5)}, 4, false},
		{Pred{Op: Ne, Val: data.IntVal(5)}, 4, true},
		{Pred{Op: Lt, Val: data.IntVal(5)}, 4, true},
		{Pred{Op: Lt, Val: data.IntVal(5)}, 5, false},
		{Pred{Op: Le, Val: data.IntVal(5)}, 5, true},
		{Pred{Op: Gt, Val: data.IntVal(5)}, 6, true},
		{Pred{Op: Ge, Val: data.IntVal(5)}, 5, true},
		{Pred{Op: Between, Val: data.IntVal(2), Val2: data.IntVal(4)}, 3, true},
		{Pred{Op: Between, Val: data.IntVal(2), Val2: data.IntVal(4)}, 5, false},
		{Pred{Op: Between, Val: data.IntVal(2), Val2: data.IntVal(4)}, 2, true},
	}
	for i, c := range cases {
		if got := c.p.Matches(c.v); got != c.want {
			t.Errorf("case %d: Matches(%v) = %v, want %v", i, c.v, got, c.want)
		}
	}
}

func TestPredBounds(t *testing.T) {
	p := Pred{Op: Le, Val: data.IntVal(7)}
	lo, hi := p.Bounds(0, 100)
	if lo != 0 || hi != 7 {
		t.Fatalf("Le bounds = [%v, %v]", lo, hi)
	}
	p = Pred{Op: Between, Val: data.IntVal(3), Val2: data.IntVal(9)}
	lo, hi = p.Bounds(0, 100)
	if lo != 3 || hi != 9 {
		t.Fatalf("Between bounds = [%v, %v]", lo, hi)
	}
	p = Pred{Op: Ne, Val: data.IntVal(3)}
	lo, hi = p.Bounds(0, 100)
	if lo != 0 || hi != 100 {
		t.Fatalf("Ne bounds = [%v, %v]", lo, hi)
	}
}

func TestQueryValidate(t *testing.T) {
	cat := twoTableCatalog()
	q := sampleQuery()
	if err := q.Validate(cat); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := sampleQuery()
	bad.Preds[0].Column = "nope"
	if err := bad.Validate(cat); err == nil {
		t.Fatal("unknown column accepted")
	}
	bad2 := sampleQuery()
	bad2.Refs = append(bad2.Refs, TableRef{Alias: "t1", Table: "t1"})
	if err := bad2.Validate(cat); err == nil {
		t.Fatal("duplicate alias accepted")
	}
	bad3 := sampleQuery()
	bad3.Joins[0].RightAlias = "zz"
	if err := bad3.Validate(cat); err == nil {
		t.Fatal("unknown join alias accepted")
	}
}

func TestQueryKeyOrderInvariant(t *testing.T) {
	q1 := sampleQuery()
	q2 := sampleQuery()
	// Reverse clause orders and flip the join.
	q2.Refs[0], q2.Refs[1] = q2.Refs[1], q2.Refs[0]
	q2.Joins[0] = Join{LeftAlias: "t2", LeftCol: "t1_id", RightAlias: "t1", RightCol: "id"}
	if q1.Key() != q2.Key() {
		t.Fatalf("Key not order-invariant:\n%s\n%s", q1.Key(), q2.Key())
	}
}

func TestSubquery(t *testing.T) {
	q := sampleQuery()
	sub := q.Subquery(map[string]bool{"t1": true})
	if len(sub.Refs) != 1 || len(sub.Joins) != 0 || len(sub.Preds) != 1 {
		t.Fatalf("Subquery(t1) = %+v", sub)
	}
	both := q.Subquery(map[string]bool{"t1": true, "t2": true})
	if len(both.Joins) != 1 {
		t.Fatalf("Subquery(all) lost join")
	}
}

func TestSQLRendering(t *testing.T) {
	q := sampleQuery()
	sql := q.SQL()
	for _, frag := range []string{"SELECT COUNT(*)", "FROM t1, t2", "t1.id = t2.t1_id", "t1.x > 3"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("SQL missing %q: %s", frag, sql)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	q := sampleQuery()
	c := q.Clone()
	c.Preds[0].Column = "changed"
	c.Refs[0].Alias = "zz"
	if q.Preds[0].Column != "x" || q.Refs[0].Alias != "t1" {
		t.Fatal("Clone shares state")
	}
}

func TestJoinGraphConnectivity(t *testing.T) {
	q := &Query{
		Refs: []TableRef{{"a", "a"}, {"b", "b"}, {"c", "c"}},
		Joins: []Join{
			{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"},
			{LeftAlias: "b", LeftCol: "y", RightAlias: "c", RightCol: "z"},
		},
	}
	g := NewJoinGraph(q)
	if !g.Connected(SetOf([]string{"a", "b", "c"})) {
		t.Fatal("chain should be connected")
	}
	if g.Connected(SetOf([]string{"a", "c"})) {
		t.Fatal("a,c not adjacent")
	}
	if !g.Connected(SetOf([]string{"a"})) {
		t.Fatal("singleton should be connected")
	}
	if g.Connected(map[string]bool{}) {
		t.Fatal("empty set should not be connected")
	}
	if !g.ConnectsTo("c", SetOf([]string{"b"})) {
		t.Fatal("c should connect to {b}")
	}
	if g.ConnectsTo("c", SetOf([]string{"a"})) {
		t.Fatal("c should not connect to {a}")
	}
	nb := g.Neighbors("b")
	if len(nb) != 2 || nb[0] != "a" || nb[1] != "c" {
		t.Fatalf("Neighbors(b) = %v", nb)
	}
}

func TestConnectedSubsets(t *testing.T) {
	q := &Query{
		Refs: []TableRef{{"a", "a"}, {"b", "b"}, {"c", "c"}},
		Joins: []Join{
			{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"},
			{LeftAlias: "b", LeftCol: "y", RightAlias: "c", RightCol: "z"},
		},
	}
	g := NewJoinGraph(q)
	subs := g.ConnectedSubsets(0)
	// Chain a-b-c: {a},{b},{c},{ab},{bc},{abc} = 6 connected subsets.
	if len(subs) != 6 {
		t.Fatalf("got %d subsets: %v", len(subs), subs)
	}
	// The mask enumeration and the map oracle must agree.
	if want := oracleConnectedSubsets(q, 3); !reflect.DeepEqual(subs, want) {
		t.Fatalf("ConnectedSubsets = %v, oracle %v", subs, want)
	}
}

func TestJoinsBetween(t *testing.T) {
	q := sampleQuery()
	g := NewJoinGraph(q)
	js := g.JoinsBetween(SetOf([]string{"t1"}), SetOf([]string{"t2"}))
	if len(js) != 1 {
		t.Fatalf("JoinsBetween = %v", js)
	}
	none := g.JoinsBetween(SetOf([]string{"t1"}), SetOf([]string{"t1"}))
	if len(none) != 0 {
		t.Fatalf("self JoinsBetween = %v", none)
	}
}

func TestDeriveSchemaEdges(t *testing.T) {
	cat := twoTableCatalog()
	edges := DeriveSchemaEdges(cat)
	if len(edges) != 1 {
		t.Fatalf("edges = %v", edges)
	}
	e := edges[0]
	// The edge key is side-normalized: discovering the FK from either
	// direction yields the same identifier.
	flipped := SchemaEdge{T1: e.T2, C1: e.C2, T2: e.T1, C2: e.C1}
	if e.Key() != flipped.Key() {
		t.Fatalf("edge key not side-normalized: %s vs %s", e.Key(), flipped.Key())
	}
	if (SchemaEdge{T1: "t1", C1: "id", T2: "t9", C2: "t1_id"}).Key() == e.Key() {
		t.Fatal("distinct edges share a key")
	}
}

func TestResolveFKTargetHeuristics(t *testing.T) {
	cat := data.NewCatalog()
	u := data.NewTable("users", &data.Column{Name: "id", Kind: data.Int})
	cat.Add(u)
	if got := resolveFKTarget(cat, "owner_user_id"); got != "users" {
		t.Fatalf("owner_user_id → %q, want users", got)
	}
	if got := resolveFKTarget(cat, "user_id"); got != "users" {
		t.Fatalf("user_id → %q, want users", got)
	}
	if got := resolveFKTarget(cat, "missing_id"); got != "" {
		t.Fatalf("missing_id → %q, want empty", got)
	}
}
