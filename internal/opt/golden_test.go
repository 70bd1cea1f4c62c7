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
	"lqo/internal/datagen"
	"lqo/internal/plan"
	"lqo/internal/query"
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
}

// goldenCells spans enumerator × tree shape × hint set. The greedy cells
// force the fallback with MaxDPTables=3 on a slice of the workload, the
// order cells cover PlanFromOrder, and the sharded cell runs the full
// default pipeline over Merge nodes.
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
			goldenCell{name: "greedy/" + h.name, opt: func(b *Optimizer) *Optimizer {
				o := b.WithHints(h.h)
				o.MaxDPTables = 3
				return o
			}, take: func(qs []*query.Query) []*query.Query { return qs[:48] }},
			goldenCell{name: "order/" + h.name, opt: func(b *Optimizer) *Optimizer { return b.WithHints(h.h) },
				take: func(qs []*query.Query) []*query.Query { return qs[:96] }, fromOrder: true},
		)
	}
	cells = append(cells, goldenCell{name: "dp/bushy/default/shards2", opt: func(b *Optimizer) *Optimizer {
		o := b.WithHints(plan.HintSet{})
		o.Shards = 2
		return o
	}, take: func(qs []*query.Query) []*query.Query { return qs[:96] }})
	return cells
}

// hashCell plans every query of the cell and folds plan fingerprint, the
// EstCost/EstCard bits of every node and the enumeration-effort counter
// into one hash: any change to search space, iteration order, tie-breaking
// or the sub-queries handed to the estimator moves it.
func hashCell(t *testing.T, o *Optimizer, qs []*query.Query, fromOrder bool) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, q := range qs {
		var p *plan.Node
		var err error
		if fromOrder {
			order := q.Aliases()
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
			p, err = o.PlanFromOrder(q, order)
		} else {
			p, err = o.OptimizeCtx(context.Background(), q)
		}
		if err != nil {
			t.Fatalf("optimize %s: %v", q.SQL(), err)
		}
		fp := p.Fingerprint()
		put(uint64(len(fp)))
		h.Write([]byte(fp))
		p.Walk(func(n *plan.Node) {
			put(math.Float64bits(n.EstCost))
			put(math.Float64bits(n.EstCard))
		})
		put(uint64(o.PlansConsidered()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPlanIdentity pins the planner's output to hashes recorded
// before the bitmask rewrite of the enumerator (PR 14): 320 seeded
// StatsCEB queries of 1–6 joins under every cell of goldenCells. The old
// enumerator is gone; these hashes are what is left of it.
func TestGoldenPlanIdentity(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 7})
	est := cardest.NewHistogramEstimator()
	if err := est.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	base := New(cat, cost.New(cs), est)
	qs := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 320, MinJoins: 1, MaxJoins: 6})

	got := map[string]string{}
	for _, c := range goldenCells() {
		cell := qs
		if c.take != nil {
			cell = c.take(qs)
		}
		got[c.name] = hashCell(t, c.opt(base), cell, c.fromOrder)
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
