// Byte-identity tests for the operator pipeline against the reference
// evaluator (reference.go): Count, Value, CostStats, and per-node
// TrueCard must match bit-for-bit at every worker count and batch size,
// and per-operator telemetry must replay exactly to CostStats.
package exec_test

import (
	"context"
	"math"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// refOutcome runs the reference evaluator and snapshots everything the
// pipeline must reproduce, including per-node TrueCard in plan order.
func refOutcome(t *testing.T, ex *exec.Executor, q *query.Query) (outcome, []float64) {
	t.Helper()
	p := planFor(t, q)
	res, err := ex.ReferenceRun(context.Background(), q, p)
	if err != nil {
		return outcome{err: true}, nil
	}
	return outcome{count: res.Count, value: res.Value, stats: res.Stats}, trueCards(p)
}

func trueCards(p *plan.Node) []float64 {
	var out []float64
	p.Walk(func(n *plan.Node) { out = append(out, n.TrueCard) })
	return out
}

// TestPipelineMatchesReference is the tentpole invariant: the streaming
// pipeline measures exactly what the materialize-everything reference
// evaluator — the scalar executable specification — measured, at workers
// 1/2/8 and across batch sizes.
func TestPipelineMatchesReference(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 15, MaxJoins: 3, MaxPreds: 2})

	ref := exec.New(cat)
	ref.MaxIntermediate = testCap
	for qi, q := range queries {
		want, wantCards := refOutcome(t, ref, q)
		for _, workers := range []int{1, 2, 8} {
			for _, batch := range []int{0, 1, 7, 64} {
				ex := exec.New(cat)
				ex.MaxIntermediate = testCap
				ex.Workers = workers
				ex.BatchSize = batch
				p := planFor(t, q)
				res, err := ex.RunCtx(context.Background(), q, p)
				if want.err {
					if err == nil {
						t.Fatalf("query %d workers=%d batch=%d: reference errored, pipeline did not", qi, workers, batch)
					}
					continue
				}
				if err != nil {
					t.Fatalf("query %d workers=%d batch=%d: %v", qi, workers, batch, err)
				}
				if res.Count != want.count {
					t.Fatalf("query %d workers=%d batch=%d: count %d != %d", qi, workers, batch, res.Count, want.count)
				}
				if !sameValue(res.Value, want.value) {
					t.Fatalf("query %d workers=%d batch=%d: value %v != %v", qi, workers, batch, res.Value, want.value)
				}
				if res.Stats != want.stats {
					t.Fatalf("query %d workers=%d batch=%d: stats %+v != %+v", qi, workers, batch, res.Stats, want.stats)
				}
				if got := trueCards(p); len(got) != len(wantCards) {
					t.Fatalf("query %d: %d plan nodes != %d", qi, len(got), len(wantCards))
				} else {
					for i := range got {
						if got[i] != wantCards[i] {
							t.Fatalf("query %d workers=%d batch=%d: TrueCard[%d] %v != %v", qi, workers, batch, i, got[i], wantCards[i])
						}
					}
				}
			}
		}
	}
}

// TestTelemetrySumsToStats checks the per-operator contract: every
// operator's charged work units, replayed, sum exactly (not
// approximately) to CostStats.WorkUnits, and per-operator counters add up
// to the aggregate ones.
func TestTelemetrySumsToStats(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.4})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 10, MaxJoins: 3, MaxPreds: 2})

	for qi, q := range queries {
		for _, workers := range []int{1, 8} {
			ex := exec.New(cat)
			ex.MaxIntermediate = testCap
			ex.Workers = workers
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
				t.Fatalf("query %d workers=%d: telemetry sum %v != WorkUnits %v", qi, workers, sum, res.Stats.WorkUnits)
			}
			if st := pt.Stats(); st != res.Stats {
				t.Fatalf("query %d workers=%d: replayed stats %+v != result stats %+v", qi, workers, st, res.Stats)
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
		for _, workers := range []int{1, 8} {
			ex := exec.New(cat)
			ex.MaxIntermediate = 3000
			ex.Workers = workers
			_, err2 := ex.RunCtx(context.Background(), q, planFor(t, q))
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("query %d workers=%d: cap behavior differs: reference=%v pipeline=%v", qi, workers, err1, err2)
			}
		}
		if err1 != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Skip("workload produced no cap failures; cap equivalence not exercised")
	}
}
