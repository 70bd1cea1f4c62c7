// Differential tests for the hash join's index probe (join.go,
// probeIndex): a join whose probe side is a predicate-free scan with an
// index on the key reads only the rows its build keys name. Every case
// runs the plan through RunCtx and RunAnalyze on a debug pool and checks
// Count, Value bits, CostStats, Cards and every operator's telemetry
// against ReferenceRun and against the same run with the scans'
// indexes taken away.
package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// probeTable returns a table name with columns id, k, v and f of n rows:
// k in [0, d), skewed towards 0 (a square of a uniform draw), v in
// [0, 10) and f a float whose sums depend on the order rows come in.
func probeTable(rng *rand.Rand, name string, n, d int) *data.Table {
	id := &data.Column{Name: "id", Kind: data.Int}
	k := &data.Column{Name: "k", Kind: data.Int}
	v := &data.Column{Name: "v", Kind: data.Int}
	f := &data.Column{Name: "f", Kind: data.Float}
	for i := range n {
		u := rng.Float64()
		id.AppendInt(int64(i))
		k.AppendInt(int64(u * u * float64(d)))
		v.AppendInt(int64(rng.Intn(10)))
		f.AppendFloat(rng.ExpFloat64() * 1e6)
	}
	return data.NewTable(name, id, k, v, f)
}

// probeCatalog holds p (n rows, indexed on k), b (nb rows) and c (n rows,
// indexed on k), all keyed in [0, d).
func probeCatalog(seed int64, n, nb, d int) *data.Catalog {
	rng := rand.New(rand.NewSource(seed))
	cat := data.NewCatalog()
	for _, t := range []*data.Table{probeTable(rng, "p", n, d), probeTable(rng, "b", nb, d), probeTable(rng, "c", n, d)} {
		if t.Name != "b" {
			if _, err := t.BuildIndex("k"); err != nil {
				panic(err)
			}
		}
		cat.Add(t)
	}
	return cat
}

// joinQuery joins aliases l and r of tables p, b, c on k, with preds and
// agg.
func joinQuery(joins []query.Join, preds []query.Pred, agg query.Agg) *query.Query {
	q := &query.Query{Joins: joins, Preds: preds, Agg: agg}
	for _, a := range []string{"p", "b", "c"} {
		q.Refs = append(q.Refs, query.TableRef{Alias: a, Table: a})
	}
	return q
}

func onK(l, r string) query.Join {
	return query.Join{LeftAlias: l, LeftCol: "k", RightAlias: r, RightCol: "k"}
}

func scan(alias string, preds ...query.Pred) *plan.Node {
	return plan.NewScan(plan.SeqScan, alias, alias, preds)
}

// sameRun reports where two results differ bit for bit, or "".
func sameRun(got, want *Result) string {
	switch {
	case got.Count != want.Count:
		return fmt.Sprintf("Count %d, want %d", got.Count, want.Count)
	case math.Float64bits(got.Value) != math.Float64bits(want.Value):
		return fmt.Sprintf("Value %v, want %v", got.Value, want.Value)
	case got.Stats.TuplesRead != want.Stats.TuplesRead || got.Stats.TuplesJoined != want.Stats.TuplesJoined ||
		got.Stats.IndexLookups != want.Stats.IndexLookups ||
		math.Float64bits(got.Stats.WorkUnits) != math.Float64bits(want.Stats.WorkUnits):
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	case !slices.EqualFunc(got.Cards, want.Cards, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
		return fmt.Sprintf("Cards %v, want %v", got.Cards, want.Cards)
	}
	return ""
}

// streamedAnalyze is RunAnalyze over cat's tables without their indexes,
// so that every scan streams.
func streamedAnalyze(ex *Executor, cat *data.Catalog, q *query.Query, p *plan.Node) (*Result, *PlanTelemetry, error) {
	bare := data.NewCatalog()
	for _, name := range cat.TableNames() {
		bare.Add(data.NewTable(name, cat.Table(name).Cols...))
	}
	sex := New(bare)
	sex.BatchSize = ex.BatchSize
	return sex.RunAnalyze(context.Background(), q, p)
}

// checkIndexProbe runs q's plan p on cat at batch size batch and checks
// it as the file comment says. It returns whether the index path ran: a
// scan emitted no batch where its streamed twin emitted some.
func checkIndexProbe(t *testing.T, cat *data.Catalog, q *query.Query, p *plan.Node, batch int) bool {
	t.Helper()
	ctx := context.Background()
	ex := New(cat)
	pool := NewDebugBatchPool()
	ex.SetPool(pool)
	ex.BatchSize = batch
	want, werr := ex.ReferenceRun(ctx, q, p)
	got, gerr := ex.RunCtx(ctx, q, p)
	ares, pt, aerr := ex.RunAnalyze(ctx, q, p)
	sres, spt, serr := streamedAnalyze(ex, cat, q, p)
	if werr != nil {
		for _, err := range []error{gerr, aerr, serr} {
			if err == nil || err.Error() != werr.Error() {
				t.Fatalf("error %v, want %v", err, werr)
			}
		}
		return false
	}
	for _, err := range []error{gerr, aerr, serr} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for name, r := range map[string]*Result{"RunCtx": got, "RunAnalyze": ares, "streamed": sres} {
		if d := sameRun(r, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("pool InUse = %d after the runs", n)
	}
	if m := pool.Misuse(); len(m) > 0 {
		t.Fatalf("pool misuse: %v", m)
	}
	probed, skipped := int64(0), false
	for i, o := range pt.Ops {
		s := spt.Ops[i]
		if o.Op != s.Op || o.RowsIn != s.RowsIn || o.RowsOut != s.RowsOut || !slices.Equal(o.charges, s.charges) ||
			o.tuplesRead != s.tuplesRead || o.tuplesJoined != s.tuplesJoined || o.indexLookups != s.indexLookups ||
			o.BlocksTotal != s.BlocksTotal || o.BlocksSkipped != s.BlocksSkipped {
			t.Fatalf("op %d (%s): telemetry %+v, streamed %+v", i, o.Op, *o, *s)
		}
		if s.Probed != 0 {
			t.Fatalf("op %d (%s) probed %d rows with the index path off", i, s.Op, s.Probed)
		}
		probed += o.Probed
		if o.Batches != s.Batches {
			if o.Op != plan.SeqScan.String() || o.Batches != 0 || o.RowsIn != o.RowsOut {
				t.Fatalf("op %d (%s): %d batches of %d rows in, %d out; streamed %d batches", i, o.Op, o.Batches, o.RowsIn, o.RowsOut, s.Batches)
			}
			skipped = true
		}
	}
	if probed > 0 && !skipped {
		t.Fatalf("a join probed %d rows through an index, but every scan streamed", probed)
	}
	return skipped
}

func TestIndexProbeMatchesReference(t *testing.T) {
	const n, d = 400, 60
	sumPV := query.Agg{Kind: query.AggSum, Alias: "p", Column: "f"}
	sumBV := query.Agg{Kind: query.AggAvg, Alias: "b", Column: "f"}
	vLe := func(a string, x int64) query.Pred {
		return query.Pred{Alias: a, Column: "v", Op: query.Le, Val: data.IntVal(x)}
	}
	param := query.Pred{Alias: "b", Column: "v", Op: query.Le, Param: 1}
	pk := []query.Join{onK("p", "b")}
	composite := []query.Join{onK("p", "b"), {LeftAlias: "p", LeftCol: "v", RightAlias: "b", RightCol: "v"}}
	cases := []struct {
		name   string
		nb     int
		q      *query.Query
		p      *plan.Node
		probed bool
	}{
		{"scan-left", 20, joinQuery(pk, nil, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("b"), pk), true},
		{"scan-right", 20, joinQuery(pk, nil, sumPV), plan.NewJoin(plan.HashJoin, scan("b"), scan("p"), pk), true},
		{"scan-left/merge", 20, joinQuery(pk, nil, sumBV), plan.NewJoin(plan.MergeJoin, scan("p"), scan("b"), pk), true},
		{"scan-right/nested-loop", 20, joinQuery(pk, nil, sumBV), plan.NewJoin(plan.NestedLoopJoin, scan("b"), scan("p"), pk), true},
		// b's keys repeat (an FK build): a scan row a build key names twice
		// is probed once.
		{"fk-build", 150, joinQuery(pk, []query.Pred{vLe("b", 0)}, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("b", vLe("b", 0)), pk), true},
		{"empty-build/left", 20, joinQuery(pk, []query.Pred{vLe("b", -1)}, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("b", vLe("b", -1)), pk), true},
		{"empty-build/right", 20, joinQuery(pk, []query.Pred{vLe("b", -1)}, sumPV), plan.NewJoin(plan.HashJoin, scan("b", vLe("b", -1)), scan("p"), pk), true},
		{"composite-key", 20, joinQuery(composite, nil, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("b"), composite), false},
		{"probe-preds", 20, joinQuery(pk, []query.Pred{vLe("p", 8)}, sumPV), plan.NewJoin(plan.HashJoin, scan("p", vLe("p", 8)), scan("b"), pk), false},
		{"generic-build", 80, joinQuery(pk, []query.Pred{vLe("b", 1)}, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("b", param), pk), true},
		{"generic-probe", 20, joinQuery(pk, []query.Pred{{Alias: "p", Column: "v", Op: query.Le, Val: data.IntVal(9)}}, sumPV),
			plan.NewJoin(plan.HashJoin, scan("p", query.Pred{Alias: "p", Column: "v", Op: query.Le, Param: 1}), scan("b"), pk), false},
		// The top join's right input is an indexed scan; its left a join.
		{"three-way", 20, joinQuery([]query.Join{onK("b", "p"), onK("b", "c")}, []query.Pred{vLe("b", 2), vLe("p", 0)}, sumPV),
			plan.NewJoin(plan.HashJoin, plan.NewJoin(plan.HashJoin, scan("b", vLe("b", 2)), scan("p", vLe("p", 0)), []query.Join{onK("b", "p")}), scan("c"), []query.Join{onK("b", "c")}), true},
		// Both inputs are indexed scans: the smaller builds, the larger is
		// probed.
		{"both-indexed", 0, joinQuery([]query.Join{onK("p", "c")}, nil, sumPV), plan.NewJoin(plan.HashJoin, scan("p"), scan("c"), []query.Join{onK("p", "c")}), false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cat := probeCatalog(3, n, c.nb, d)
			for _, batch := range []int{0, 1, 7} {
				if got := checkIndexProbe(t, cat, c.q, c.p, batch); got != c.probed {
					t.Fatalf("batch %d: index path ran = %v, want %v", batch, got, c.probed)
				}
			}
		})
	}
}

// TestIndexProbeSizeRule runs a 25-row build against scans of k·25 - 1,
// k·25 and k·25 + 1 rows: only the first streams.
func TestIndexProbeSizeRule(t *testing.T) {
	const nb = 25
	pk := []query.Join{onK("p", "b")}
	q := joinQuery(pk, nil, query.Agg{Kind: query.AggMax, Alias: "p", Column: "id"})
	for _, delta := range []int{-1, 0, 1} {
		n := indexProbeRatio*nb + delta
		cat := probeCatalog(int64(n), n, nb, 50)
		for _, p := range []*plan.Node{plan.NewJoin(plan.HashJoin, scan("p"), scan("b"), pk), plan.NewJoin(plan.HashJoin, scan("b"), scan("p"), pk)} {
			if got := checkIndexProbe(t, cat, q, p, 0); got != (delta >= 0) {
				t.Fatalf("N = k·b%+d, %s: index path ran = %v", delta, p, got)
			}
		}
	}
}

// TestIndexProbeStaleIndex appends a row to p after BuildIndex: the index
// no longer covers the scan, which must stream, until it is rebuilt.
func TestIndexProbeStaleIndex(t *testing.T) {
	cat := probeCatalog(5, 400, 20, 60)
	pk := []query.Join{onK("p", "b")}
	q := joinQuery(pk, nil, query.Agg{Kind: query.AggSum, Alias: "p", Column: "f"})
	p := plan.NewJoin(plan.HashJoin, scan("p"), scan("b"), pk)
	tbl := cat.Table("p")
	for _, c := range tbl.Cols[:3] {
		c.AppendInt(0) // id 0, key 0: a key b's skewed keys name
	}
	tbl.Column("f").AppendFloat(1)
	if checkIndexProbe(t, cat, q, p, 0) {
		t.Fatal("the index path ran over an index that misses an appended row")
	}
	if _, err := tbl.BuildIndex("k"); err != nil {
		t.Fatal(err)
	}
	if !checkIndexProbe(t, cat, q, p, 0) {
		t.Fatal("the index path did not run after the index was rebuilt")
	}
}

// TestIndexProbeCapError crosses the intermediate cap mid-probe: the run
// fails with the reference evaluator's error and returns every buffer.
func TestIndexProbeCapError(t *testing.T) {
	cat := probeCatalog(9, 2000, 40, 20)
	pk := []query.Join{onK("p", "b")}
	q := joinQuery(pk, nil, query.Agg{})
	for _, p := range []*plan.Node{plan.NewJoin(plan.HashJoin, scan("p"), scan("b"), pk), plan.NewJoin(plan.HashJoin, scan("b"), scan("p"), pk)} {
		if !checkIndexProbe(t, cat, q, p, 0) {
			t.Fatal("the index path did not run")
		}
		ex := New(cat)
		pool := NewDebugBatchPool()
		ex.SetPool(pool)
		res, err := ex.RunCtx(context.Background(), q, p)
		if err != nil {
			t.Fatal(err)
		}
		ex.MaxIntermediate = int(res.Count) / 2
		_, werr := ex.ReferenceRun(context.Background(), q, p)
		_, gerr := ex.RunCtx(context.Background(), q, p)
		if werr == nil || gerr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("cap %d: error %v, want %v", ex.MaxIntermediate, gerr, werr)
		}
		if pool.InUse() != 0 || len(pool.Misuse()) > 0 {
			t.Fatalf("after the cap error: InUse %d, misuse %v", pool.InUse(), pool.Misuse())
		}
	}
}

// FuzzIndexProbeJoin joins a random indexed table with skewed keys to a
// random filtered build, on either side, under every join operator, and
// checks the runs against ReferenceRun and the streamed path.
func FuzzIndexProbeJoin(f *testing.F) {
	f.Add(int64(1), uint16(400), uint8(20), uint8(30), uint8(9), uint8(0))
	f.Add(int64(2), uint16(1000), uint8(60), uint8(5), uint8(0), uint8(1))
	f.Add(int64(3), uint16(50), uint8(3), uint8(200), uint8(4), uint8(6))
	f.Add(int64(4), uint16(0), uint8(0), uint8(1), uint8(9), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, nb, d, le, shape uint8) {
		n %= 3000
		cat := probeCatalog(seed, int(n), int(nb), int(d)+1)
		pk := []query.Join{onK("p", "b")}
		filter := query.Pred{Alias: "b", Column: "v", Op: query.Le, Val: data.IntVal(int64(le % 11))}
		q := joinQuery(pk, []query.Pred{filter}, query.Agg{Kind: query.AggKind(shape % 5), Alias: "p", Column: "f"})
		if q.Agg.Kind == query.AggCount {
			q.Agg = query.Agg{}
		}
		op := []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin}[shape/5%3]
		p := plan.NewJoin(op, scan("p"), scan("b", filter), pk)
		if shape&0x40 != 0 {
			p.Left, p.Right = p.Right, p.Left
		}
		checkIndexProbe(t, cat, q, p, []int{0, 1, 5}[shape>>7])
	})
}
