package exec

import (
	"context"
	"testing"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// twoKeyCatalog has two tables joinable on a composite (two-column) key.
func twoKeyCatalog() *data.Catalog {
	cat := data.NewCatalog()
	mk := func(name string, rows [][3]int64) *data.Table {
		a := &data.Column{Name: "k1", Kind: data.Int}
		b := &data.Column{Name: "k2", Kind: data.Int}
		v := &data.Column{Name: "v", Kind: data.Int}
		for _, r := range rows {
			a.AppendInt(r[0])
			b.AppendInt(r[1])
			v.AppendInt(r[2])
		}
		t := data.NewTable(name, a, b, v)
		cat.Add(t)
		return t
	}
	mk("l", [][3]int64{{1, 1, 0}, {1, 2, 1}, {2, 1, 2}, {2, 2, 3}, {1, 1, 4}})
	mk("r", [][3]int64{{1, 1, 0}, {1, 2, 1}, {3, 3, 2}, {1, 1, 3}})
	return cat
}

func TestMultiConditionJoin(t *testing.T) {
	cat := twoKeyCatalog()
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "l", Table: "l"}, {Alias: "r", Table: "r"}},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "k1", RightAlias: "r", RightCol: "k1"},
			{LeftAlias: "l", LeftCol: "k2", RightAlias: "r", RightCol: "k2"},
		},
	}
	want := bruteForceCount(cat, q)
	// l(1,1)x2 matches r(1,1)x2 → 4; l(1,2) matches r(1,2) → 1. Total 5.
	if want != 5 {
		t.Fatalf("brute force composite join = %d, want 5", want)
	}
	for _, op := range []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin} {
		p := plan.NewJoin(op,
			plan.NewScan(plan.SeqScan, "l", "l", nil),
			plan.NewScan(plan.SeqScan, "r", "r", nil), q.Joins)
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if res.Count != want {
			t.Fatalf("%v composite join = %d, want %d", op, res.Count, want)
		}
	}
}

func TestJoinWithDuplicateKeysAndSwappedCondition(t *testing.T) {
	cat := twoKeyCatalog()
	// Condition written right-to-left relative to plan children.
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "l", Table: "l"}, {Alias: "r", Table: "r"}},
		Joins: []query.Join{
			{LeftAlias: "r", LeftCol: "k1", RightAlias: "l", RightCol: "k1"},
		},
	}
	want := bruteForceCount(cat, q)
	p := plan.NewJoin(plan.HashJoin,
		plan.NewScan(plan.SeqScan, "l", "l", nil),
		plan.NewScan(plan.SeqScan, "r", "r", nil), q.Joins)
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want {
		t.Fatalf("swapped condition join = %d, want %d", res.Count, want)
	}
}

func TestScanPredicateOperators(t *testing.T) {
	cat := twoKeyCatalog()
	cases := []struct {
		p    query.Pred
		want int64
	}{
		{query.Pred{Alias: "l", Column: "v", Op: query.Ne, Val: data.IntVal(0)}, 4},
		{query.Pred{Alias: "l", Column: "v", Op: query.Between, Val: data.IntVal(1), Val2: data.IntVal(3)}, 3},
		{query.Pred{Alias: "l", Column: "v", Op: query.Lt, Val: data.IntVal(0)}, 0},
		{query.Pred{Alias: "l", Column: "v", Op: query.Ge, Val: data.IntVal(4)}, 1},
	}
	for _, c := range cases {
		q := &query.Query{
			Refs:  []query.TableRef{{Alias: "l", Table: "l"}},
			Preds: []query.Pred{c.p},
		}
		p := plan.NewScan(plan.SeqScan, "l", "l", q.Preds)
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != c.want {
			t.Fatalf("%s: count = %d, want %d", c.p, res.Count, c.want)
		}
	}
}

func TestIndexScanAppliesResidualPredicates(t *testing.T) {
	cat := twoKeyCatalog()
	tbl := cat.Table("l")
	if _, err := tbl.BuildIndex("k1"); err != nil {
		t.Fatal(err)
	}
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "l", Table: "l"}},
		Preds: []query.Pred{
			{Alias: "l", Column: "k1", Op: query.Eq, Val: data.IntVal(1)},
			{Alias: "l", Column: "v", Op: query.Gt, Val: data.IntVal(0)},
		},
	}
	p := plan.NewScan(plan.IndexScan, "l", "l", q.Preds)
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	// k1=1 rows: v ∈ {0,1,4} → v>0 keeps 2.
	if res.Count != 2 {
		t.Fatalf("index + residual = %d, want 2", res.Count)
	}
}

func TestWorkChargesDifferByOperator(t *testing.T) {
	cat := twoKeyCatalog()
	q := &query.Query{
		Refs: []query.TableRef{{Alias: "l", Table: "l"}, {Alias: "r", Table: "r"}},
		Joins: []query.Join{
			{LeftAlias: "l", LeftCol: "k1", RightAlias: "r", RightCol: "k1"},
		},
	}
	work := map[plan.Op]float64{}
	for _, op := range []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin} {
		p := plan.NewJoin(op,
			plan.NewScan(plan.SeqScan, "l", "l", nil),
			plan.NewScan(plan.SeqScan, "r", "r", nil), q.Joins)
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		work[op] = res.Stats.WorkUnits
	}
	if work[plan.HashJoin] == work[plan.NestedLoopJoin] || work[plan.HashJoin] == work[plan.MergeJoin] {
		t.Fatalf("operators charged identically: %v", work)
	}
}

func TestRunUnknownTableErrors(t *testing.T) {
	cat := twoKeyCatalog()
	q := &query.Query{Refs: []query.TableRef{{Alias: "x", Table: "x"}}}
	p := plan.NewScan(plan.SeqScan, "x", "x", nil)
	if _, err := New(cat).RunCtx(context.Background(), q, p); err == nil {
		t.Fatal("unknown table accepted")
	}
}

// TestProductExceedsOverflow is the regression test for the cross-product
// cap guard: the old code computed left.Len()*right.Len() in int, which
// wraps negative on overflow and sails past the `> maxRows` comparison.
func TestProductExceedsOverflow(t *testing.T) {
	const cap32 = 5_000_000
	cases := []struct {
		a, b, limit int
		want        bool
	}{
		{10, 10, cap32, false},
		{cap32, 1, cap32, false},
		{cap32, 2, cap32, true},
		{cap32 + 1, 1, cap32, true},
		// Pre-fix: 1<<31 * 1<<33 = 1<<64 wraps to 0 in int/int64 and the
		// guard judged the cross product "small enough".
		{1 << 31, 1 << 33, cap32, true},
		// Pre-fix: this product is ~2^62.4; in 32-bit int it wraps, and
		// even int64 arithmetic overflows for slightly larger inputs.
		{3_037_000_500, 3_037_000_500, cap32, true},
		{0, 1 << 62, cap32, false},
	}
	for _, c := range cases {
		if got := productExceeds(c.a, c.b, c.limit); got != c.want {
			t.Errorf("productExceeds(%d, %d, %d) = %v, want %v", c.a, c.b, c.limit, got, c.want)
		}
	}
}
