// Differential test for the count-only root join (join.go, fill, and
// joinTable.count): under COUNT(*) a plan's root hash join emits no
// columns and counts its matches, where the same plan under MAX(col)
// lists them and gathers col's alias. Over generated 1–4-join plans, on
// the indexed catalog (index-probed where the size rule allows) and on
// its index-free copy (streamed), both runs must measure the same, fail
// at the same cap with the same error, and return every pooled buffer.
package exec_test

import (
	"context"
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// withMax is q aggregating MAX over the first Int column of alias's
// table.
func withMax(cat *data.Catalog, q *query.Query, alias string) *query.Query {
	m := *q
	for _, c := range cat.Table(q.TableOf(alias)).Cols {
		if c.Kind == data.Int {
			m.Agg = query.Agg{Kind: query.AggMax, Alias: alias, Column: c.Name}
			break
		}
	}
	return &m
}

// sameStats reports whether two CostStats agree, WorkUnits bit for bit.
func sameStats(a, b exec.CostStats) bool {
	return a.TuplesRead == b.TuplesRead && a.TuplesJoined == b.TuplesJoined && a.IndexLookups == b.IndexLookups &&
		math.Float64bits(a.WorkUnits) == math.Float64bits(b.WorkUnits)
}

func TestCountRootMatchesMaterializing(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.2})
	bare := data.NewCatalog()
	for _, name := range cat.TableNames() {
		bare.Add(data.NewTable(name, cat.Table(name).Cols...))
	}
	queries := workload.GenWorkload(cat, workload.Options{Seed: 45, Count: 48, MinJoins: 1, MaxJoins: 4, MaxPreds: 2})
	ctx := context.Background()
	var checked, probed int
	for qi, q := range queries {
		p := planFor(t, q)
		if p.Op != plan.HashJoin {
			continue
		}
		qc := *q
		qc.Agg = query.Agg{}
		qm := withMax(cat, &qc, p.Left.Aliases()[0])
		for _, c := range []*data.Catalog{cat, bare} {
			ex := exec.New(c)
			pool := exec.NewDebugBatchPool()
			ex.SetPool(pool)
			ex.MaxIntermediate = testCap
			cres, cpt, cerr := ex.RunAnalyze(ctx, &qc, p)
			mres, mpt, merr := ex.RunAnalyze(ctx, qm, p)
			if cerr != nil || merr != nil {
				if cerr == nil || merr == nil || cerr.Error() != merr.Error() {
					t.Fatalf("query %d: COUNT(*) error %v, MAX error %v", qi, cerr, merr)
				}
				continue
			}
			checked++
			if cres.Count != mres.Count || !sameStats(cres.Stats, mres.Stats) || !sameCards(cres.Cards, mres.Cards) {
				t.Fatalf("query %d (%s): COUNT(*) %d %+v %v, MAX %d %+v %v", qi, qc.SQL(),
					cres.Count, cres.Stats, cres.Cards, mres.Count, mres.Stats, mres.Cards)
			}
			for k, o := range cpt.Ops {
				m := mpt.Ops[k]
				if o.Op != m.Op || o.RowsIn != m.RowsIn || o.RowsOut != m.RowsOut || o.Batches != m.Batches || o.Probed != m.Probed {
					t.Fatalf("query %d op %d: COUNT(*) telemetry %+v, MAX %+v", qi, k, *o, *m)
				}
				probed += int(o.Probed)
			}
			listed, err := exec.RootJoinListed(ex, &qc, p)
			if err != nil || listed {
				t.Fatalf("query %d: the COUNT(*) root join listed match pairs (%v)", qi, err)
			}
			if listed, err = exec.RootJoinListed(ex, qm, p); err != nil || (cres.Count > 0 && !listed) {
				t.Fatalf("query %d: the MAX root join listed no pairs for %d matches (%v)", qi, cres.Count, err)
			}
			if root := cres.Cards[0]; root >= 1 {
				ex.MaxIntermediate = int(root) - 1
				_, cerr := ex.RunCtx(ctx, &qc, p)
				_, merr := ex.RunCtx(ctx, qm, p)
				if cerr == nil || merr == nil || cerr.Error() != merr.Error() {
					t.Fatalf("query %d: cap %d: COUNT(*) error %v, MAX error %v", qi, ex.MaxIntermediate, cerr, merr)
				}
			}
			if pool.InUse() != 0 || len(pool.Misuse()) > 0 {
				t.Fatalf("query %d: pool InUse %d, misuse %v", qi, pool.InUse(), pool.Misuse())
			}
		}
	}
	if checked < 40 || probed == 0 {
		t.Fatalf("%d plan runs compared, %d rows index-probed: the workload no longer covers both paths", checked, probed)
	}
	t.Logf("%d plan runs compared, %d rows index-probed", checked, probed)
}
