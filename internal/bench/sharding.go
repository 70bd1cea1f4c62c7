package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// e16Rows is the synthetic scan-table size for E16. Fixed rather than
// scale-derived: the experiment measures the execution layer, and the
// quick-scale catalogs are too small for a shard fan-out to have anything
// to chew on.
const e16Rows = 400_000

// E16Sharding is the scatter-gather experiment: the same scan-heavy
// queries executed unsharded and through the shard-scans rewrite pass at
// increasing fan-outs. Every sharded run is checked byte-for-byte against
// the serial ReferenceRun of the unsharded plan and of the sharded plan
// itself (which evaluates each Merge leaf as its SeqScan) — Count, Value
// and the full CostStats (charged WorkUnits included) must be identical,
// because the merge operator charges the canonical analytic scan cost and
// the k-way merge restores the unsharded row order. Only wall clock may
// change; the table reports the speedup over the single-shard run. It
// runs fan-outs 1, 2 and 4 and times each plan as the best of 3 runs.
func E16Sharding(ctx context.Context, env *Env) (*Report, error) {
	const repeat = 3
	shardCounts := []int{1, 2, 4}
	// Join partner: the catalog's largest declared FK parent table.
	var parent *data.Table
	for _, fk := range env.Cat.FKs() {
		if t := env.Cat.Table(fk.RefTable); t != nil && t.Column(fk.RefColumn) != nil && fk.RefColumn == "id" {
			if parent == nil || t.NumRows() > parent.NumRows() {
				parent = t
			}
		}
	}

	events := data.NewTable("shard_events", &data.Column{Name: "id", Kind: data.Int}, &data.Column{Name: "val", Kind: data.Int}, &data.Column{Name: "ref", Kind: data.Int})
	rng := env.Seed
	for i := 0; i < e16Rows; i++ {
		events.Column("id").AppendInt(int64(i))
		// Cheap LCG: val is unordered, so zone maps prune nothing and the
		// per-row predicate work the shards divide up is real.
		rng = rng*6364136223846793005 + 1442695040888963407
		events.Column("val").AppendInt((rng >> 33) % 1000)
		if parent != nil {
			events.Column("ref").AppendInt((rng >> 13) % int64(parent.NumRows()))
		} else {
			events.Column("ref").AppendInt(0)
		}
	}
	env.Cat.Add(events)

	const n = int64(e16Rows)
	mkPred := func(col string, op query.CmpOp, lo, hi int64) query.Pred {
		return query.Pred{Alias: "shard_events", Column: col, Op: op, Val: data.IntVal(lo), Val2: data.IntVal(hi)}
	}
	type bq struct {
		label string
		q     *query.Query
	}
	scan := func(label string, preds ...query.Pred) bq {
		return bq{label, &query.Query{
			Refs:  []query.TableRef{{Alias: "shard_events", Table: "shard_events"}},
			Preds: preds,
		}}
	}
	cases := []bq{
		scan("unclustered Between 10%", mkPred("val", query.Between, 0, 99)),
		scan("unclustered Eq", mkPred("val", query.Eq, 500, 0)),
		scan("unclustered Ge 50%", mkPred("val", query.Ge, 500, 0)),
		scan("clustered Between 50%", mkPred("id", query.Between, n/4, n/4+n/2)),
	}
	if parent != nil {
		cases = append(cases, bq{fmt.Sprintf("join %s + 20%% scan", parent.Name), &query.Query{
			Refs: []query.TableRef{
				{Alias: "shard_events", Table: "shard_events"},
				{Alias: parent.Name, Table: parent.Name},
			},
			Joins: []query.Join{{LeftAlias: "shard_events", LeftCol: "ref", RightAlias: parent.Name, RightCol: "id"}},
			Preds: []query.Pred{mkPred("val", query.Between, 0, 199)},
		}})
	}

	r := &Report{
		ID:     "E16",
		Title:  fmt.Sprintf("Sharded scatter-gather vs unsharded reference, dataset=%s, table=shard_events (%d rows, repeat=%d)", env.Name, n, repeat),
		Header: []string{"query", "shards", "rows out", "ms", "speedup", "work units"},
	}

	ex := exec.New(env.Cat)
	run := func(q *query.Query, p *plan.Node) (*exec.Result, float64, error) {
		var res *exec.Result
		bestMS := 0.0
		for i := 0; i < repeat; i++ {
			start := time.Now()
			got, err := ex.RunCtx(ctx, q, p)
			if err != nil {
				return nil, 0, err
			}
			ms := float64(time.Since(start).Microseconds()) / 1000
			if i == 0 || ms < bestMS {
				bestMS = ms
			}
			res = got
		}
		return res, bestMS, nil
	}
	for _, c := range cases {
		base, err := exec.CanonicalPlan(c.q)
		if err != nil {
			return nil, fmt.Errorf("E16 %s: %w", c.label, err)
		}
		ref, err := env.Ex.ReferenceRun(ctx, c.q, base.Clone())
		if err != nil {
			return nil, fmt.Errorf("E16 %s (reference): %w", c.label, err)
		}
		baseMS := 0.0
		for _, shards := range shardCounts {
			p := base.Clone()
			if shards >= 2 {
				var err error
				p, _, err = plan.DefaultPipeline(shards).Run(ctx, p, nil)
				if err != nil {
					return nil, fmt.Errorf("E16 %s (pipeline shards=%d): %w", c.label, shards, err)
				}
			}
			shardRef, err := env.Ex.ReferenceRun(ctx, c.q, p.Clone())
			if err != nil {
				return nil, fmt.Errorf("E16 %s (reference shards=%d): %w", c.label, shards, err)
			}
			res, ms, err := run(c.q, p)
			if err != nil {
				return nil, fmt.Errorf("E16 %s (shards=%d): %w", c.label, shards, err)
			}
			for _, want := range []struct {
				name string
				r    *exec.Result
			}{{"reference", ref}, {"sharded-plan reference", shardRef}} {
				if res.Count != want.r.Count || math.Float64bits(res.Value) != math.Float64bits(want.r.Value) {
					return nil, fmt.Errorf("E16 %s: shards=%d result %d/%v != %s %d/%v", c.label, shards, res.Count, res.Value, want.name, want.r.Count, want.r.Value)
				}
				if res.Stats != want.r.Stats {
					return nil, fmt.Errorf("E16 %s: shards=%d stats %+v != %s %+v", c.label, shards, res.Stats, want.name, want.r.Stats)
				}
			}
			if baseMS == 0 {
				baseMS = ms
			}
			r.AddRow(c.label, fmt.Sprintf("%d", shards), fmt.Sprintf("%d", res.Count), F(ms), F(baseMS/ms), F(res.Stats.WorkUnits))
		}
	}
	r.Notes = append(r.Notes,
		"every row's Count, Value and full CostStats (WorkUnits included) are byte-identical to the serial ReferenceRun of the unsharded plan and of the row's own plan (Merge leaves evaluated as SeqScans) — checked, not assumed",
		"shards >= 2: the shard-scans rewrite pass turns each SeqScan into a Merge leaf whose partitions are scattered concurrently through the executor's ShardBackend (the executor itself)",
		"blocks partition round-robin (block b -> shard b mod N); the merge operator k-way-merges per-shard ascending row ids, restoring the unsharded row order",
		"ms is best of repeat runs; speedup is vs this table's first shard count",
		fmt.Sprintf("GOMAXPROCS=%d: the shard fan-out runs concurrently, so speedup is bounded by available cores (on one core the headline is parity at identical results)", runtime.GOMAXPROCS(0)),
	)
	return r, nil
}
