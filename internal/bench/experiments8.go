package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/query"
)

// e17Rows is the synthetic scan-table size for E17. Fixed rather than
// scale-derived for the same reason as E16: the experiment measures the
// execution layer's allocation behaviour, and the quick-scale catalogs
// are too small for steady-state pooling to show its shape.
const e17Rows = 200_000

// E17Pooling is the zero-allocation hot-path experiment: the same
// scan- and join-heavy queries executed repeatedly on one executor —
// the cached-plan serving shape — with the batch/selection-vector pool
// on (default) and off (NoPool). Warm-up runs populate the pool, then
// allocs/op and allocs/row are taken from runtime.MemStats deltas
// across the measured runs. Every run, pooled or not, is checked
// byte-for-byte against the serial ReferenceRun: Count, Value (bit
// pattern) and the full CostStats must be identical, because pooling
// and the buffered exchange recycle memory without touching a single
// result or charge.
func E17Pooling(ctx context.Context, env *Env, workerCounts []int, repeat int) (*Report, error) {
	if repeat < 3 {
		repeat = 3
	}
	if len(workerCounts) == 0 {
		workerCounts = []int{1, 8}
	}
	// Join partner: the catalog's largest declared FK parent table.
	var parent *data.Table
	for _, fk := range env.Cat.FKs() {
		if t := env.Cat.Table(fk.RefTable); t != nil && t.Column(fk.RefColumn) != nil && fk.RefColumn == "id" {
			if parent == nil || t.NumRows() > parent.NumRows() {
				parent = t
			}
		}
	}

	events := data.NewTable("pool_events", &data.Column{Name: "id", Kind: data.Int}, &data.Column{Name: "val", Kind: data.Int}, &data.Column{Name: "ref", Kind: data.Int})
	rng := env.Seed
	for i := 0; i < e17Rows; i++ {
		events.Column("id").AppendInt(int64(i))
		rng = rng*6364136223846793005 + 1442695040888963407
		events.Column("val").AppendInt((rng >> 33) % 1000)
		if parent != nil {
			events.Column("ref").AppendInt((rng >> 13) % int64(parent.NumRows()))
		} else {
			events.Column("ref").AppendInt(0)
		}
	}
	env.Cat.Add(events)

	mkPred := func(col string, op query.CmpOp, lo, hi int64) query.Pred {
		return query.Pred{Alias: "pool_events", Column: col, Op: op, Val: data.IntVal(lo), Val2: data.IntVal(hi)}
	}
	type bq struct {
		label string
		q     *query.Query
	}
	cases := []bq{
		{"unclustered Between 20%", &query.Query{
			Refs:  []query.TableRef{{Alias: "pool_events", Table: "pool_events"}},
			Preds: []query.Pred{mkPred("val", query.Between, 0, 199)},
		}},
	}
	if parent != nil {
		cases = append(cases, bq{fmt.Sprintf("join %s + 50%% scan", parent.Name), &query.Query{
			Refs: []query.TableRef{
				{Alias: "pool_events", Table: "pool_events"},
				{Alias: parent.Name, Table: parent.Name},
			},
			Joins: []query.Join{{LeftAlias: "pool_events", LeftCol: "ref", RightAlias: parent.Name, RightCol: "id"}},
			Preds: []query.Pred{mkPred("val", query.Between, 0, 499)},
		}})
	}

	r := &Report{
		ID:     "E17",
		Title:  fmt.Sprintf("Pooled batches vs per-run allocation, dataset=%s, table=pool_events (%d rows, repeat=%d)", env.Name, e17Rows, repeat),
		Header: []string{"query", "workers", "mode", "rows", "ms", "allocs/op", "allocs/row", "alloc reduction"},
	}

	for _, c := range cases {
		base, err := exec.CanonicalPlan(c.q)
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", c.label, err)
		}
		ref, err := env.Ex.ReferenceRun(ctx, c.q, base.Clone())
		if err != nil {
			return nil, fmt.Errorf("E17 %s (reference): %w", c.label, err)
		}
		for _, workers := range workerCounts {
			var nopoolAllocs float64
			for _, mode := range []struct {
				name   string
				noPool bool
			}{{"nopool", true}, {"pooled", false}} {
				ex := exec.New(env.Cat)
				ex.NoVec = env.Ex.NoVec
				ex.Workers = workers
				ex.NoPool = mode.noPool
				p := base.Clone()
				check := func(res *exec.Result) error {
					if res.Count != ref.Count || math.Float64bits(res.Value) != math.Float64bits(ref.Value) {
						return fmt.Errorf("E17 %s (%s, workers=%d): result %d/%v != reference %d/%v", c.label, mode.name, workers, res.Count, res.Value, ref.Count, ref.Value)
					}
					if res.Stats != ref.Stats {
						return fmt.Errorf("E17 %s (%s, workers=%d): stats %+v != reference %+v", c.label, mode.name, workers, res.Stats, ref.Stats)
					}
					return nil
				}
				var rows int64
				for i := 0; i < 2; i++ { // warm-up: fill the pool, settle sizes
					res, err := ex.RunCtx(ctx, c.q, p)
					if err != nil {
						return nil, err
					}
					if err := check(res); err != nil {
						return nil, err
					}
					rows = res.Stats.TuplesRead + res.Stats.TuplesJoined
				}
				runtime.GC()
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				start := time.Now()
				for i := 0; i < repeat; i++ {
					res, err := ex.RunCtx(ctx, c.q, p)
					if err != nil {
						return nil, err
					}
					if err := check(res); err != nil {
						return nil, err
					}
				}
				ms := float64(time.Since(start).Microseconds()) / 1000 / float64(repeat)
				runtime.ReadMemStats(&m1)
				allocs := float64(m1.Mallocs-m0.Mallocs) / float64(repeat)
				perRow := 0.0
				if rows > 0 {
					perRow = allocs / float64(rows)
				}
				reduction := "-"
				if mode.noPool {
					nopoolAllocs = allocs
				} else if allocs > 0 {
					reduction = fmt.Sprintf("%.0fx", nopoolAllocs/allocs)
				}
				r.AddRow(c.label, fmt.Sprintf("%d", workers), mode.name, fmt.Sprintf("%d", rows), F(ms), fmt.Sprintf("%.0f", allocs), fmt.Sprintf("%.4f", perRow), reduction)
			}
		}
	}
	r.Notes = append(r.Notes,
		"every run's Count, Value and full CostStats are byte-identical to the serial ReferenceRun — checked per run, pooled and unpooled",
		"mode=pooled recycles row-id vectors (batch columns, selection vectors, join match indices) and join-key scratch through the executor's BatchPool; mode=nopool (the -nopool flag) plainly allocates on every call",
		"allocs/op and allocs/row are runtime.MemStats Mallocs deltas over the measured runs, after 2 warm-up runs populate the pool; rows = TuplesRead + TuplesJoined",
		"workers > 1 additionally runs the buffered inter-operator exchange, whose in-flight column vectors come from the same pool",
		fmt.Sprintf("GOMAXPROCS=%d; ms is the mean measured run (memory accounting forbids best-of: the delta spans all runs)", runtime.GOMAXPROCS(0)),
	)
	return r, nil
}
