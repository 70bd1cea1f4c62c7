// Tests for what recycling operator structs can break: a struct drawn
// from the pool must behave exactly like a new one, whatever plan, catalog
// state or run mode it last served.
package exec_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// raceEnabled is set by race_test.go: under the race detector sync.Pool
// drops puts at random, so allocation ceilings do not hold.
var raceEnabled bool

// variantPlan reshapes q's canonical plan so that consecutive runs on one
// pool hand a recycled struct to a different operator role: variant v
// rotates the join algorithms (and with them the charged work) and, on
// odd variants, turns every leaf that can into an index scan.
func variantPlan(t *testing.T, cat *data.Catalog, q *query.Query, v int) *plan.Node {
	t.Helper()
	p := planFor(t, q)
	joinOps := []plan.Op{plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin}
	k := v
	p.Walk(func(n *plan.Node) {
		switch {
		case n.IsLeaf() && v%2 == 1:
			for _, pr := range n.Preds {
				if pr.Op == query.Eq && cat.Table(n.Table).Index(pr.Column) != nil {
					n.Op = plan.IndexScan
				}
			}
		case !n.IsLeaf() && len(n.Cond) > 0:
			n.Op = joinOps[k%len(joinOps)]
			k++
		}
	})
	return p
}

// recycleQueries is a generated workload plus, so that every recycled
// operator type is in the mix, copies of its first queries with an
// equality on an indexed key (an index scan with residual predicates on
// odd variants), one join-less pair of filtered tables (a cross join), and
// SUM/AVG/MIN/MAX of the deepest leaf's id through 3-5-way joins (a
// column every join must carry up).
func recycleQueries(t *testing.T, cat *data.Catalog) []*query.Query {
	t.Helper()
	queries := workload.GenWorkload(cat, workload.Options{Seed: 17, Count: 16, MaxJoins: 3, MaxPreds: 2})
	aggs := []query.AggKind{query.AggSum, query.AggAvg, query.AggMin, query.AggMax}
	for _, q := range queries {
		if len(q.Refs) >= 3 {
			c := *q
			c.Agg = query.Agg{Kind: aggs[0], Alias: q.Refs[0].Alias, Column: "id"}
			aggs = append(aggs[1:], aggs[0])
			queries = append(queries, &c)
		}
	}
	for _, q := range queries[:6] {
		c := *q
		ref := q.Refs[0]
		ids := cat.Table(ref.Table).Column("id")
		if ids == nil || cat.Table(ref.Table).Index("id") == nil {
			t.Fatalf("table %s has no indexed id column", ref.Table)
		}
		c.Preds = append(append([]query.Pred(nil), q.Preds...),
			query.Pred{Alias: ref.Alias, Column: "id", Op: query.Eq, Val: data.IntVal(ids.Ints[ids.Len()/2])})
		queries = append(queries, &c)
	}
	names := cat.TableNames()
	return append(queries, &query.Query{
		Refs: []query.TableRef{{Alias: "x", Table: names[0]}, {Alias: "y", Table: names[1]}},
		Preds: []query.Pred{
			{Alias: "x", Column: "id", Op: query.Lt, Val: data.IntVal(40)},
			{Alias: "y", Column: "id", Op: query.Lt, Val: data.IntVal(30)},
		},
	})
}

// TestRecycledOperatorsSeeCurrentCatalog runs many differently-shaped
// plans through one pool, appends to every column under it with
// ApplyDrift — what an adaptive server's catalog does under live
// traffic — and runs them again: Count, Value bits, TrueCards and the
// full CostStats must equal ReferenceRun's each time. A recycled struct
// that kept anything derived from data (column storage, row count, prune
// bitmap, posting list, key columns, output layout) fails here. Variant 3
// also shards the remaining sequential scans 4 ways (Merge leaves, which
// the reference runs unsharded).
func TestRecycledOperatorsSeeCurrentCatalog(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	queries := recycleQueries(t, cat)
	ctx := context.Background()
	pool := exec.NewDebugBatchPool()
	ex := exec.New(cat)
	ex.MaxIntermediate = testCap
	ex.SetPool(pool)
	ref := exec.New(cat)
	ref.MaxIntermediate = testCap

	ran, aggs, kinds := 0, 0, map[plan.Op]int{}
	check := func(stage string) {
		for qi, q := range queries {
			for v := 0; v < 4; v++ {
				wantPlan, gotPlan := variantPlan(t, cat, q, v), variantPlan(t, cat, q, v)
				if v == 3 {
					gotPlan, _ = plan.ShardScans(4).Rewrite(ctx, gotPlan, &plan.PassContext{})
				}
				want, werr := ref.ReferenceRun(ctx, q, wantPlan)
				got, gerr := ex.RunCtx(ctx, q, gotPlan)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s q%d v%d: reference err %v, pooled err %v", stage, qi, v, werr, gerr)
				}
				if werr != nil {
					continue // a failed run is dropped, not recycled; the next one must not notice
				}
				ran++
				if q.Agg.Kind != query.AggCount {
					aggs++
				}
				gotPlan.Walk(func(n *plan.Node) {
					if n.Op == plan.NestedLoopJoin && len(n.Cond) == 0 {
						kinds[-1]++ // cross join
					} else {
						kinds[n.Op]++
					}
				})
				if got.Count != want.Count || math.Float64bits(got.Value) != math.Float64bits(want.Value) {
					t.Fatalf("%s q%d v%d: result %d/%v, reference %d/%v", stage, qi, v, got.Count, got.Value, want.Count, want.Value)
				}
				if got.Stats != want.Stats {
					t.Fatalf("%s q%d v%d: stats %+v, reference %+v", stage, qi, v, got.Stats, want.Stats)
				}
				if g, w := logicalCards(gotPlan), logicalCards(wantPlan); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s q%d v%d: TrueCards %v, reference %v", stage, qi, v, g, w)
				}
			}
		}
	}
	check("t0")
	datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 3, Fraction: 0.6, Shift: 2, DomainShift: 0.2})
	check("drifted")
	if aggs < 16 {
		t.Fatalf("only %d of %d runs computed SUM/AVG/MIN/MAX; the sweep no longer carries an aggregate column", aggs, ran)
	}
	for _, op := range []plan.Op{plan.SeqScan, plan.IndexScan, plan.HashJoin, plan.MergeJoin, plan.NestedLoopJoin, plan.Merge, -1} {
		if kinds[op] < 4 {
			t.Fatalf("operator kind %v ran %d times in %d runs; the sweep no longer recycles it", op, kinds[op], ran)
		}
	}
	if n := pool.InUse(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding", n)
	}
	if mis := pool.Misuse(); len(mis) != 0 {
		t.Fatalf("pool contract violations: %v", mis)
	}
}

// logicalCards lists the logical plan's TrueCards in pre-order: a Merge
// counts as the scan it shards.
func logicalCards(p *plan.Node) []float64 {
	var out []float64
	p.WalkLogical(func(n *plan.Node) { out = append(out, n.TrueCard) })
	return out
}

// telemetryValue flattens a PlanTelemetry into comparable values.
func telemetryValue(pt *exec.PlanTelemetry) []any {
	var out []any
	for _, op := range pt.Ops {
		out = append(out, *op, op.Charges())
	}
	return out
}

// TestAnalyzeTelemetryOutlivesRecycling: RunAnalyze hands out a snapshot,
// so telemetry a caller keeps is untouched by the runs that reuse the
// operator structs it was read from.
func TestAnalyzeTelemetryOutlivesRecycling(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 10, MaxJoins: 3, MaxPreds: 2})
	ctx := context.Background()
	ex := exec.New(cat)
	ex.MaxIntermediate = testCap
	var kept *exec.PlanTelemetry
	var keptPlan *plan.Node
	for _, q := range queries {
		p := planFor(t, q)
		if _, pt, err := ex.RunAnalyze(ctx, q, p); err == nil && p.NumJoins() >= 2 {
			kept, keptPlan = pt, p
			break
		}
	}
	if kept == nil {
		t.Fatal("no executable 2-join query in workload")
	}
	before := telemetryValue(kept)
	if root, ok := kept.ByNode(keptPlan); !ok || root.Wall <= 0 {
		t.Fatalf("analyzed run left the plan root untimed: %+v", root)
	}
	for i := 0; i < 100; i++ {
		q := queries[i%len(queries)]
		if i%2 == 0 {
			_, _ = ex.RunCtx(ctx, q, planFor(t, q)) // cap errors are fine: not recycled
		} else {
			_, _, _ = ex.RunAnalyze(ctx, q, planFor(t, q))
		}
	}
	if after := telemetryValue(kept); !reflect.DeepEqual(before, after) {
		t.Fatalf("kept telemetry changed under later runs:\n before %+v\n after  %+v", before, after)
	}
	if st, ok := kept.ByNode(keptPlan); !ok || float64(st.RowsOut) != keptPlan.TrueCard {
		t.Fatalf("kept telemetry no longer describes its plan")
	}
}

// TestPlainRunNeverTimed: only RunAnalyze reads the clock. A plain run's
// operators are the same structs, so the distinction must not leak through
// the pool in either direction.
func TestPlainRunNeverTimed(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	q := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 1, MaxJoins: 2, MaxPreds: 1})[0]
	ex := exec.New(cat)
	ex.MaxIntermediate = testCap
	for i := 0; i < 3; i++ {
		if _, err := ex.RunCtx(context.Background(), q, planFor(t, q)); err != nil {
			t.Skip("query does not execute under the test cap")
		}
		_, pt, err := ex.RunAnalyze(context.Background(), q, planFor(t, q))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range pt.Ops {
			if op.Wall <= 0 {
				t.Fatalf("round %d: analyzed %s has no wall-clock", i, op.Op)
			}
		}
	}
}

// TestWarmRunAllocationCeiling pins the steady state of the serving hot
// path: a warm RunCtx of a 2-join plan allocates its Result and next to
// nothing else — no operator structs, pool boxes, schemas, key columns,
// compiled predicates or telemetry. A join over two 4-shard Merge leaves
// additionally pays per run for what the scatter keeps — each shard's
// result and row vector, the exchange and merge operators, their
// goroutines — but not for an engine per shard.
func TestWarmRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	ctx := context.Background()
	warm := func(ex *exec.Executor, q *query.Query, p *plan.Node) float64 {
		if _, err := ex.RunCtx(ctx, q, p); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := ex.RunCtx(ctx, q, p); err != nil {
				t.Fatal(err)
			}
		})
	}

	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 20, MaxJoins: 2, MaxPreds: 2})
	ex := exec.New(cat)
	ex.MaxIntermediate = testCap
	found := false
	for _, q := range queries {
		p := planFor(t, q)
		if p.NumJoins() != 2 {
			continue
		}
		if _, err := ex.RunCtx(ctx, q, p); err != nil {
			continue
		}
		if allocs := warm(ex, q, p); allocs > 6 {
			t.Fatalf("warm 2-join RunCtx allocates %.1f objects per run, ceiling 6", allocs)
		}
		found = true
		break
	}
	if !found {
		t.Fatal("no executable 2-join query in workload")
	}

	q := exec.ShardQueries()[3]
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	p, _ = plan.ShardScans(4).Rewrite(ctx, p, &plan.PassContext{})
	if allocs := warm(exec.New(exec.ShardCatalog()), q, p); allocs > 88 {
		t.Fatalf("warm RunCtx of a join over 4-shard Merge leaves allocates %.1f objects per run, ceiling 88", allocs)
	}
}
