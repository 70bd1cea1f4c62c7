// Byte-identity tests for the operator pipeline against the reference
// evaluator (reference.go): Count, Value, CostStats, and the per-node
// Cards record must match bit-for-bit at every batch size,
// and per-operator telemetry must replay exactly to CostStats.
package exec_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// testCap bounds intermediate results so star joins on heavy-hitter keys
// fail fast (identically on both paths) instead of dominating test time.
const testCap = 300_000

// planFor rebuilds a fresh canonical plan tree (RunAnalyze annotates
// TrueCard in place, so every execution gets its own tree).
func planFor(t *testing.T, q *query.Query) *plan.Node {
	t.Helper()
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

type outcome struct {
	count int64
	value float64
	stats exec.CostStats
	err   bool
}

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// refOutcome runs the reference evaluator and snapshots everything the
// pipeline must reproduce, including the per-node Cards record in plan
// order.
func refOutcome(t *testing.T, ex *exec.Executor, q *query.Query) (outcome, []float64) {
	t.Helper()
	p := planFor(t, q)
	res, err := ex.ReferenceRun(context.Background(), q, p)
	if err != nil {
		return outcome{err: true}, nil
	}
	return outcome{count: res.Count, value: res.Value, stats: res.Stats}, res.Cards
}

// sameCards reports whether two Cards records are identical bit for bit.
func sameCards(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestPipelineMatchesReference is the tentpole invariant: the streaming
// pipeline measures exactly what the materialize-everything reference
// evaluator — the scalar executable specification — measured, across
// batch sizes.
func TestPipelineMatchesReference(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 15, MaxJoins: 3, MaxPreds: 2})

	ref := exec.New(cat)
	ref.MaxIntermediate = testCap
	for qi, q := range queries {
		want, wantCards := refOutcome(t, ref, q)
		for _, batch := range []int{0, 1, 7, 64} {
			ex := exec.New(cat)
			ex.MaxIntermediate = testCap
			ex.BatchSize = batch
			p := planFor(t, q)
			res, err := ex.RunCtx(context.Background(), q, p)
			if want.err {
				if err == nil {
					t.Fatalf("query %d batch=%d: reference errored, pipeline did not", qi, batch)
				}
				continue
			}
			if err != nil {
				t.Fatalf("query %d batch=%d: %v", qi, batch, err)
			}
			if res.Count != want.count {
				t.Fatalf("query %d batch=%d: count %d != %d", qi, batch, res.Count, want.count)
			}
			if !sameValue(res.Value, want.value) {
				t.Fatalf("query %d batch=%d: value %v != %v", qi, batch, res.Value, want.value)
			}
			if res.Stats != want.stats {
				t.Fatalf("query %d batch=%d: stats %+v != %+v", qi, batch, res.Stats, want.stats)
			}
			if !sameCards(res.Cards, wantCards) {
				t.Fatalf("query %d batch=%d: Cards %v != %v", qi, batch, res.Cards, wantCards)
			}
			p.Walk(func(n *plan.Node) {
				if n.TrueCard != 0 {
					t.Fatalf("query %d: RunCtx wrote TrueCard %v into the plan", qi, n.TrueCard)
				}
			})
		}
	}
}

// TestTelemetrySumsToStats checks the per-operator contract: every
// operator's charged work units, replayed, sum exactly (not
// approximately) to CostStats.WorkUnits, and every plan node's operator
// reports the node's true cardinality.
func TestTelemetrySumsToStats(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 10, MaxJoins: 3, MaxPreds: 2})

	for qi, q := range queries {
		ex := exec.New(cat)
		ex.MaxIntermediate = testCap
		p := planFor(t, q)
		res, pt, err := ex.RunAnalyze(context.Background(), q, p)
		if err != nil {
			continue // cap errors are exercised elsewhere
		}
		// Summing every operator's charges in canonical order must
		// reproduce WorkUnits exactly — not approximately — because the
		// charges are recorded in the reference evaluator's fold order.
		var sum float64
		for _, op := range pt.Ops {
			for _, c := range op.Charges() {
				sum += c
			}
		}
		if sum != res.Stats.WorkUnits {
			t.Fatalf("query %d: telemetry sum %v != WorkUnits %v", qi, sum, res.Stats.WorkUnits)
		}
		for _, n := range p.Nodes() {
			op, ok := pt.ByNode(n)
			if !ok {
				t.Fatalf("query %d: plan node %s has no telemetry", qi, n.Op)
			}
			if float64(op.RowsOut) != n.TrueCard {
				t.Fatalf("query %d: node %s RowsOut %d != TrueCard %v", qi, n.Op, op.RowsOut, n.TrueCard)
			}
		}
		// SubtreeWork folds per-operator subtotals (a different float
		// association than the canonical replay), so it matches up to
		// rounding, not bit-for-bit.
		if w := pt.SubtreeWork(p); math.Abs(w-res.Stats.WorkUnits) > 1e-6*(1+math.Abs(res.Stats.WorkUnits)) {
			t.Fatalf("query %d: root SubtreeWork %v != WorkUnits %v", qi, w, res.Stats.WorkUnits)
		}
	}
}

// TestPipelineCapEquivalence checks the streaming join reports the
// intermediate-cap error exactly when the reference evaluator fails.
func TestPipelineCapEquivalence(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 5, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 31, Count: 20, MaxJoins: 3, MaxPreds: 1})
	ref := exec.New(cat)
	ref.MaxIntermediate = 3000
	failures := 0
	for qi, q := range queries {
		_, err1 := ref.ReferenceRun(context.Background(), q, planFor(t, q))
		ex := exec.New(cat)
		ex.MaxIntermediate = 3000
		_, err2 := ex.RunCtx(context.Background(), q, planFor(t, q))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: cap behavior differs: reference=%v pipeline=%v", qi, err1, err2)
		}
		if err1 != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Skip("workload produced no cap failures; cap equivalence not exercised")
	}
}
