// Memory-footprint benchmark: the streaming pipeline vs. the reference
// materialize-everything evaluator on a deep join chain. The pipeline
// should allocate markedly less because intermediates stream in
// fixed-size batches instead of materializing at every join; only the
// hash-join build sides persist.
//
//	go test ./internal/exec/ -bench DeepJoin -benchmem -run xx
//
// Results are recorded in EXPERIMENTS.md (E12; steady-state pooling, once
// E17, is BenchmarkDeepJoinSteadyState).
package exec_test

import (
	"context"
	"runtime"
	"testing"

	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// benchSetup picks the generated query with the most joins (breaking
// ties toward the largest join volume) so the benchmark exercises a deep
// pipeline with real intermediate growth.
func benchSetup(b *testing.B) (*exec.Executor, *query.Query) {
	b.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 7, Scale: 0.6})
	queries := workload.GenWorkload(cat, workload.Options{Seed: 23, Count: 30, MaxJoins: 4, MaxPreds: 1})
	ex := exec.New(cat)
	ex.MaxIntermediate = 2_000_000
	var best *query.Query
	bestScore := int64(-1)
	for _, q := range queries {
		p, err := exec.CanonicalPlan(q)
		if err != nil {
			continue
		}
		res, err := ex.RunCtx(context.Background(), q, p)
		if err != nil {
			continue
		}
		// Prefer deep plans that also move real tuple volume through the
		// joins.
		score := int64(len(q.Refs))*1_000_000_000 + res.Stats.TuplesJoined
		if score > bestScore {
			bestScore, best = score, q
		}
	}
	if best == nil {
		b.Skip("no executable deep-join query in workload")
	}
	return ex, best
}

func BenchmarkDeepJoinStreaming(b *testing.B) {
	ex, q := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := exec.CanonicalPlan(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.RunCtx(context.Background(), q, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeepJoinSteadyState measures the cached-plan serving shape:
// one plan tree executed repeatedly on one executor, so the pool's
// steady state (every vector and operator struct recycled) is what's on
// the clock. Warm-up runs populate the pool before measurement; allocs/op
// and allocs/row come from runtime.MemStats deltas across the measured
// loop.
func BenchmarkDeepJoinSteadyState(b *testing.B) {
	ex, q := benchSetup(b)
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var rows int64
	for i := 0; i < 3; i++ { // warm-up: fill the pool, settle sizes
		res, err := ex.RunCtx(ctx, q, p)
		if err != nil {
			b.Fatal(err)
		}
		rows = res.Stats.TuplesRead + res.Stats.TuplesJoined
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.RunCtx(ctx, q, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs - m0.Mallocs)
	b.ReportMetric(allocs/float64(b.N), "allocs/op")
	if rows > 0 {
		b.ReportMetric(allocs/float64(b.N)/float64(rows), "allocs/row")
	}
}

func BenchmarkDeepJoinReference(b *testing.B) {
	ex, q := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := exec.CanonicalPlan(q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ex.ReferenceRun(context.Background(), q, p); err != nil {
			b.Fatal(err)
		}
	}
}
