package opt

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_plans.json from the current planner")

const goldenPath = "testdata/golden_plans.json"

// goldenCell is one planner configuration of the identity matrix.
type goldenCell struct {
	name string
	opt  func(base *Optimizer) *Optimizer
	take func(qs []*query.Query) []*query.Query // nil: the whole workload
	// fromOrder plans through PlanFromOrder over the reversed FROM order
	// (cross products included) instead of OptimizeCtx.
	fromOrder bool
	// greedy plans every query of more than greedyAbove aliases through
	// OptimizeGreedyCtx and the default pipeline instead of OptimizeCtx.
	greedy bool
	// sharded plans every query a second time through
	// plan.DefaultPipeline(2).
	sharded bool
	// est names the cardest estimator the cell plans with; "" is the
	// histogram estimator every other cell uses.
	est string
}

// greedyAbove is the alias count beyond which a greedy cell plans
// greedily: the cells' hashes were recorded with DP bounded at 3 tables.
const greedyAbove = 3

// goldenCells spans enumerator × tree shape × hint set. The greedy cells
// plan the queries of more than greedyAbove aliases of a slice of the
// workload greedily, the order cells cover PlanFromOrder, the sharded
// cell runs the full default pipeline over Merge nodes, and the mutated
// cell feeds the rewrite passes the duplicate and unsatisfiable
// conjuncts they fold.
func goldenCells() []goldenCell {
	hints := []struct {
		name string
		h    plan.HintSet
	}{
		{"default", plan.HintSet{}},
		{"no-hashjoin", plan.HintSet{NoHashJoin: true}},
		{"no-nestloop,no-indexscan", plan.HintSet{NoNestedLoop: true, NoIndexScan: true}},
	}
	var cells []goldenCell
	for _, h := range hints {
		cells = append(cells,
			goldenCell{name: "dp/bushy/" + h.name, opt: func(b *Optimizer) *Optimizer { return b.WithHints(h.h) }},
			goldenCell{name: "dp/leftdeep/" + h.name, opt: func(b *Optimizer) *Optimizer {
				o := b.WithHints(h.h)
				o.LeftDeepOnly = true
				return o
			}},
			goldenCell{name: "greedy/" + h.name, opt: func(b *Optimizer) *Optimizer { return b.WithHints(h.h) },
				take: func(qs []*query.Query) []*query.Query { return qs[:48] }, greedy: true},
			goldenCell{name: "order/" + h.name, opt: func(b *Optimizer) *Optimizer { return b.WithHints(h.h) },
				take: func(qs []*query.Query) []*query.Query { return qs[:96] }, fromOrder: true},
		)
	}
	cells = append(cells, goldenCell{name: "dp/bushy/default/shards2", opt: func(b *Optimizer) *Optimizer {
		o := b.WithHints(plan.HintSet{})
		o.Passes = plan.DefaultPipeline(2)
		return o
	}, take: func(qs []*query.Query) []*query.Query { return qs[:96] }})
	cells = append(cells, goldenCell{name: "dp/bushy/default/mutated", opt: func(b *Optimizer) *Optimizer {
		return b.WithHints(plan.HintSet{})
	}, take: mutateQueries, sharded: true})
	// The per-table estimators that compose through the System-R join
	// formula, each on a slice small enough to stay cheap: their
	// per-alias selectivity path must keep every estimate's bits.
	for _, est := range []string{"spn", "kde", "naru", "iris", "quicksel", "bayesnet", "glue"} {
		cells = append(cells, goldenCell{name: "dp/bushy/default/" + est, opt: func(b *Optimizer) *Optimizer {
			return b.WithHints(plan.HintSet{})
		}, take: func(qs []*query.Query) []*query.Query { return qs[:40] }, est: est})
	}
	return cells
}

// mutateQueries returns three variants of every query, each adding one
// conjunct on the column of one of its predicates: a duplicate of that
// predicate, a range that contradicts it, and a reversed BETWEEN.
func mutateQueries(qs []*query.Query) []*query.Query {
	var out []*query.Query
	for i, q := range qs {
		p := q.Preds[i%len(q.Preds)]
		contra := query.Pred{Alias: p.Alias, Column: p.Column, Op: query.Ge, Val: shiftVal(p.Val, 1)}
		if p.Op != query.Le {
			contra = query.Pred{Alias: p.Alias, Column: p.Column, Op: query.Le, Val: shiftVal(p.Val, -1)}
		}
		reversed := query.Pred{Alias: p.Alias, Column: p.Column, Op: query.Between, Val: shiftVal(p.Val, 1), Val2: p.Val}
		for _, extra := range []query.Pred{p, contra, reversed} {
			m := *q
			m.Preds = append(append([]query.Pred(nil), q.Preds...), extra)
			out = append(out, &m)
		}
	}
	return out
}

// shiftVal returns v moved by d in its own kind.
func shiftVal(v data.Value, d int64) data.Value {
	if v.K == data.Float {
		return data.FloatVal(v.F + float64(d))
	}
	v.I += d
	return v
}

// hashCell plans every query of the cell and folds plan fingerprint, the
// EstCost/EstCard bits of every node and the enumeration-effort counter
// into one hash: any change to search space, iteration order, tie-breaking
// or the sub-queries handed to the estimator moves it. The hashes were
// recorded when a Merge node held one Exchange child per shard over a
// clone of its scan; each such pair is folded as the words it hashed to,
// a function of the Merge node: Exchange EstCost 0 and EstCard
// Merge.EstCard/Shards, then the clone's EstCost and EstCard, the Merge
// node's own.
func hashCell(t *testing.T, c goldenCell, opts []*Optimizer, qs []*query.Query) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, q := range qs {
		for _, o := range opts {
			p, err := c.plan(o, q)
			if err != nil {
				t.Fatalf("optimize %s: %v", q.SQL(), err)
			}
			fp := p.Fingerprint()
			put(uint64(len(fp)))
			h.Write([]byte(fp))
			p.Walk(func(n *plan.Node) {
				put(math.Float64bits(n.EstCost))
				put(math.Float64bits(n.EstCard))
				for i := 0; i < n.Shards; i++ {
					put(0)
					put(math.Float64bits(n.EstCard / float64(n.Shards)))
					put(math.Float64bits(n.EstCost))
					put(math.Float64bits(n.EstCard))
				}
			})
			put(uint64(o.PlansConsidered()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// plan plans q with o as the cell says.
func (c goldenCell) plan(o *Optimizer, q *query.Query) (*plan.Node, error) {
	ctx := context.Background()
	switch {
	case c.fromOrder:
		order := q.Aliases()
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		return o.PlanFromOrder(q, order)
	case c.greedy && len(q.Refs) > greedyAbove:
		p, err := o.OptimizeGreedyCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		p, _, err = plan.DefaultPipeline(0).Run(ctx, p, nil)
		return p, err
	}
	return o.OptimizeCtx(ctx, q)
}

// perMaskEstimator hides its estimator's EstimateGraph: the planner asks
// it once per mask.
type perMaskEstimator struct{ est CardEstimator }

func (p perMaskEstimator) Estimate(q *query.Query) float64 { return p.est.Estimate(q) }

// TestGoldenPlanIdentity pins the planner's output to hashes recorded
// before the bitmask rewrite of the enumerator (PR 14): 320 seeded
// StatsCEB queries of 1–6 joins under every cell of goldenCells. The old
// enumerator is gone; these hashes are what is left of it. The histogram
// cells run twice, with the estimator answering each join graph at once
// and behind perMaskEstimator, and both runs must match one hash.
func TestGoldenPlanIdentity(t *testing.T) {
	cat, cs, base, qs := goldenWorld(t)
	labeled, err := workload.GenLabeled(cat, exec.NewCardCache(exec.New(cat)), workload.Options{Seed: 13, Count: 40, MaxJoins: 2, MaxPreds: 2})
	if err != nil {
		t.Fatal(err)
	}
	train := make([]cardest.Sample, len(labeled))
	for i, l := range labeled {
		train[i] = cardest.Sample{Q: l.Q, Card: l.Card}
	}

	got, perMask := map[string]string{}, map[string]string{}
	for _, c := range goldenCells() {
		cell := qs
		if c.take != nil {
			cell = c.take(qs)
		}
		b := base
		if c.est != "" {
			e, err := cardest.ByName(c.est)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Train(&cardest.Context{Cat: cat, Stats: cs, Train: train, Seed: 7}); err != nil {
				t.Fatal(err)
			}
			b = base.WithEstimator(e)
		}
		opts := []*Optimizer{c.opt(b)}
		if c.sharded {
			s := opts[0].WithHints(opts[0].Hints)
			s.Passes = plan.DefaultPipeline(2)
			opts = append(opts, s)
		}
		got[c.name] = hashCell(t, c, opts, cell)
		if c.est == "" {
			for i, o := range opts {
				opts[i] = o.WithEstimator(perMaskEstimator{o.Est})
			}
			perMask[c.name] = hashCell(t, c, opts, cell)
		}
	}
	for name, h := range perMask {
		if h != got[name] {
			t.Errorf("cell %s: the per-mask path hashes %s, the graph path %s", name, h, got[name])
		}
	}

	if *updateGolden {
		body, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(body, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	body, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d cells, planner matrix has %d", len(want), len(got))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("cell %s: plan hash %s, golden %s", name, got[name], w)
		}
	}
}

// goldenWorld is the golden matrix's catalog, its statistics, the
// histogram-estimated base optimizer and the 320-query workload.
func goldenWorld(t testing.TB) (*data.Catalog, *stats.CatalogStats, *Optimizer, []*query.Query) {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 7})
	est := cardest.NewHistogramEstimator()
	if err := est.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	qs := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 320, MinJoins: 1, MaxJoins: 6})
	return cat, cs, New(cat, cost.New(cs), est), qs
}

// TestPreparedMissPlansFromBoundGraph: a prepared miss plans from its
// binding's join graph (the template's, rebound) through
// OptimizeGraphCtx, where an ad-hoc query builds its own. Every golden
// query, made a template with a ? per literal and bound to its own
// values, must plan exactly as OptimizeCtx plans the query itself: the
// same fingerprint, the same EstCard/EstCost bits on every node and the
// same enumeration effort.
func TestPreparedMissPlansFromBoundGraph(t *testing.T) {
	cat, _, o, qs := goldenWorld(t)
	ctx := context.Background()
	for _, q := range qs {
		tmpl := q.Clone()
		var args []any
		for i := range tmpl.Preds {
			p := &tmpl.Preds[i]
			args = append(args, p.Val)
			p.Param = len(args)
			if p.Op == query.Between {
				args = append(args, p.Val2)
				p.Param2 = len(args)
			}
		}
		stmt, err := sqlx.Prepare(tmpl.SQL(), cat)
		if err != nil {
			t.Fatalf("prepare %s: %v", tmpl.SQL(), err)
		}
		bound, err := stmt.Bind(args...)
		if err != nil {
			t.Fatal(err)
		}
		g := stmt.Graph(bound)
		want, err := o.OptimizeCtx(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		wantPlans := o.PlansConsidered()
		got, err := o.OptimizeGraphCtx(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() || o.PlansConsidered() != wantPlans {
			t.Fatalf("%s\nbound graph plans %s (%d alternatives), the query %s (%d)",
				q.SQL(), got.Fingerprint(), o.PlansConsidered(), want.Fingerprint(), wantPlans)
		}
		gn, wn := got.Nodes(), want.Nodes()
		for i := range wn {
			if math.Float64bits(gn[i].EstCard) != math.Float64bits(wn[i].EstCard) || math.Float64bits(gn[i].EstCost) != math.Float64bits(wn[i].EstCost) {
				t.Fatalf("%s\nnode %d: bound graph estimates card %v cost %v, the query %v %v",
					q.SQL(), i, gn[i].EstCard, gn[i].EstCost, wn[i].EstCard, wn[i].EstCost)
			}
		}
	}
}
