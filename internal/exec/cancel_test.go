// Cancellation-path tests: a context canceled before or during execution
// must abort the run with ctx.Err(), on the serial and the parallel path
// alike, and must never leak worker goroutines.
package exec_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/workload"
)

func TestRunCtxPreCanceled(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.2})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 5, Count: 3, MaxJoins: 2, MaxPreds: 2})
	ex := exec.New(cat)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range queries {
		_, err := ex.RunCtx(ctx, q, planFor(t, q))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-canceled RunCtx err = %v, want context.Canceled", err)
		}
	}
}

func TestRunCtxDeadlineExceeded(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 11, Count: 10, MaxJoins: 3, MaxPreds: 2})

	for _, workers := range []int{1, 8} {
		ex := exec.New(cat)
		ex.Workers = workers
		// An already-expired deadline: every query must abort with
		// DeadlineExceeded before any (serial or partitioned) loop runs to
		// completion.
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		for _, q := range queries {
			_, err := ex.RunCtx(ctx, q, planFor(t, q))
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
			}
		}
		cancel()
	}
}

// TestRunCtxCancelLeaksNoGoroutines pins the acceptance criterion that a
// timed-out query cleans up after itself: the fork-join pools are joined
// before RunCtx returns, so the goroutine count settles back to the
// baseline.
func TestRunCtxCancelLeaksNoGoroutines(t *testing.T) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 8, MaxJoins: 3, MaxPreds: 2})

	before := runtime.NumGoroutine()
	ex := exec.New(cat)
	ex.Workers = 8
	for i, q := range queries {
		// Alternate between an expired deadline and a mid-flight cancel.
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*50*time.Microsecond)
		_, _ = ex.RunCtx(ctx, q, planFor(t, q))
		cancel()
	}
	// Give any (hypothetically) stray workers a moment to show up.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestRunCtxNilSafeBackground(t *testing.T) {
	// A context with no deadline (Background) and a live one that never
	// fires must measure exactly the same run.
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.2})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 5, Count: 3, MaxJoins: 2, MaxPreds: 2})
	ex := exec.New(cat)
	live, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, q := range queries {
		bg, err := ex.RunCtx(context.Background(), q, planFor(t, q))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.RunCtx(live, q, planFor(t, q))
		if err != nil {
			t.Fatal(err)
		}
		if bg.Count != got.Count || bg.Stats != got.Stats {
			t.Fatalf("RunCtx(Background) diverges from a live context: %+v vs %+v", bg, got)
		}
	}
}
