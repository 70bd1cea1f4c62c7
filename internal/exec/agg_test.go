package exec

import (
	"context"
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

func TestAggregates(t *testing.T) {
	cat := smallCatalog(61)
	// Single-table aggregates over a.v with a filter.
	base := &query.Query{
		Refs:  []query.TableRef{{Alias: "a", Table: "a"}},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Ge, Val: data.IntVal(0)}},
	}
	// Reference values computed directly.
	col := cat.Table("a").Column("v")
	var sum, lo, hi float64
	lo, hi = math.Inf(1), math.Inf(-1)
	n := 0
	for i := 0; i < col.Len(); i++ {
		v := col.Float(i)
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		n++
	}
	cases := []struct {
		agg  query.Agg
		want float64
	}{
		{query.Agg{Kind: query.AggCount}, float64(n)},
		{query.Agg{Kind: query.AggSum, Alias: "a", Column: "v"}, sum},
		{query.Agg{Kind: query.AggAvg, Alias: "a", Column: "v"}, sum / float64(n)},
		{query.Agg{Kind: query.AggMin, Alias: "a", Column: "v"}, lo},
		{query.Agg{Kind: query.AggMax, Alias: "a", Column: "v"}, hi},
	}
	for _, c := range cases {
		q := base.Clone()
		q.Agg = c.agg
		p, err := CanonicalPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(cat).RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatalf("%s: %v", c.agg, err)
		}
		if math.Abs(res.Value-c.want) > 1e-9 {
			t.Fatalf("%s = %v, want %v", c.agg, res.Value, c.want)
		}
	}
}

func TestAggregateOverJoin(t *testing.T) {
	cat := smallCatalog(67)
	q := chainQuery()
	q.Agg = query.Agg{Kind: query.AggSum, Alias: "c", Column: "v"}
	p, err := CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force the SUM.
	want := 0.0
	cv := cat.Table("c").Column("v")
	// Recompute via brute force enumeration reusing the counter's logic:
	// for each matching tuple, add c.v.
	a := cat.Table("a")
	b := cat.Table("b")
	cc := cat.Table("c")
	for ai := 0; ai < a.NumRows(); ai++ {
		if !q.Preds[0].Matches(a.Column("v").Float(ai)) {
			continue
		}
		for bi := 0; bi < b.NumRows(); bi++ {
			if b.Column("a_id").Ints[bi] != a.Column("id").Ints[ai] {
				continue
			}
			for ci := 0; ci < cc.NumRows(); ci++ {
				if cc.Column("b_id").Ints[ci] != b.Column("id").Ints[bi] {
					continue
				}
				if !q.Preds[1].Matches(cc.Column("v").Float(ci)) {
					continue
				}
				want += cv.Float(ci)
			}
		}
	}
	if math.Abs(res.Value-want) > 1e-9 {
		t.Fatalf("SUM over join = %v, want %v", res.Value, want)
	}
}

func TestAggregateEmptyResult(t *testing.T) {
	cat := smallCatalog(71)
	q := &query.Query{
		Refs:  []query.TableRef{{Alias: "a", Table: "a"}},
		Preds: []query.Pred{{Alias: "a", Column: "v", Op: query.Gt, Val: data.IntVal(1000)}},
		Agg:   query.Agg{Kind: query.AggMin, Alias: "a", Column: "v"},
	}
	p, _ := CanonicalPlan(q)
	res, err := New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Value) {
		t.Fatalf("MIN over empty = %v, want NaN", res.Value)
	}
	q.Agg = query.Agg{Kind: query.AggSum, Alias: "a", Column: "v"}
	res, err = New(cat).RunCtx(context.Background(), q, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 0 {
		t.Fatalf("SUM over empty = %v, want 0", res.Value)
	}
}
