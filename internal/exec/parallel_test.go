// Determinism tests for the parallel executor: at every worker count the
// executor must produce byte-for-byte identical results and cost
// measurements to the serial path — parallelism may only change
// wall-clock, never labels.
package exec_test

import (
	"context"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// testCap bounds intermediate results so star joins on heavy-hitter keys
// fail fast (identically on both paths) instead of dominating test time.
const testCap = 300_000

// planFor rebuilds a fresh canonical plan tree (Run mutates TrueCard in
// place, so every execution gets its own tree).
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

func runOne(t *testing.T, ex *exec.Executor, q *query.Query) outcome {
	t.Helper()
	res, err := ex.RunCtx(context.Background(), q, planFor(t, q))
	if err != nil {
		return outcome{err: true}
	}
	return outcome{count: res.Count, value: res.Value, stats: res.Stats}
}

func sameValue(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestParallelExecutorDeterminism(t *testing.T) {
	// Scale 0.6 keeps the big base tables above the parallel threshold
	// (posts=3000, comments=4800, votes=6000) so the partitioned scan
	// and probe paths really execute.
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 15, MaxJoins: 3, MaxPreds: 2})

	serial := exec.New(cat)
	serial.MaxIntermediate = testCap
	for qi, q := range queries {
		want := runOne(t, serial, q)
		for _, workers := range []int{1, 2, 8} {
			par := exec.New(cat)
			par.MaxIntermediate = testCap
			par.Workers = workers
			got := runOne(t, par, q)
			if want.err != got.err {
				t.Fatalf("workers=%d query %d: error mismatch serial=%v parallel=%v", workers, qi, want.err, got.err)
			}
			if want.err {
				continue
			}
			if got.count != want.count {
				t.Errorf("workers=%d query %d (%s): Count=%d, serial %d", workers, qi, q.SQL(), got.count, want.count)
			}
			if !sameValue(got.value, want.value) {
				t.Errorf("workers=%d query %d: Value=%v, serial %v", workers, qi, got.value, want.value)
			}
			if got.stats != want.stats {
				t.Errorf("workers=%d query %d: CostStats=%+v, serial %+v", workers, qi, got.stats, want.stats)
			}
		}
	}
}

// TestParallelExecutorDeterminismOptimizedPlans repeats the determinism
// check over optimizer-chosen plans (index scans, varying join orders),
// not just canonical left-deep trees.
func TestParallelExecutorDeterminismOptimizedPlans(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.6})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 3})
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	o := opt.New(cat, cost.New(cs), hist)
	queries := workload.GenWorkload(cat, workload.Options{Seed: 21, Count: 8, MaxJoins: 2, MaxPreds: 2})

	serial := exec.New(cat)
	serial.MaxIntermediate = testCap
	par := exec.New(cat)
	par.MaxIntermediate = testCap
	par.Workers = 4
	for qi, q := range queries {
		p1, err := o.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := o.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		r1, err1 := serial.RunCtx(context.Background(), q, p1)
		r2, err2 := par.RunCtx(context.Background(), q, p2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: error mismatch serial=%v parallel=%v", qi, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if r1.Count != r2.Count || r1.Stats != r2.Stats {
			t.Errorf("query %d: serial (count=%d stats=%+v) != parallel (count=%d stats=%+v)",
				qi, r1.Count, r1.Stats, r2.Count, r2.Stats)
		}
		if !sameValue(r1.Value, r2.Value) {
			t.Errorf("query %d: Value serial=%v parallel=%v", qi, r1.Value, r2.Value)
		}
	}
}

// TestParallelCapExceeded checks the partitioned probe reports the
// intermediate-cap error exactly when the serial path does.
func TestParallelCapExceeded(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 5, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 31, Count: 20, MaxJoins: 3, MaxPreds: 1})
	serial := exec.New(cat)
	serial.MaxIntermediate = 3000 // small cap to force failures
	par := exec.New(cat)
	par.MaxIntermediate = 3000
	par.Workers = 8
	failures := 0
	for qi, q := range queries {
		_, err1 := serial.RunCtx(context.Background(), q, planFor(t, q))
		_, err2 := par.RunCtx(context.Background(), q, planFor(t, q))
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("query %d: cap behavior differs: serial=%v parallel=%v", qi, err1, err2)
		}
		if err1 != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Skip("no query tripped the cap; tighten MaxIntermediate")
	}
}
