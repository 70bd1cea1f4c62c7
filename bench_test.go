// Package lqo's root benchmarks regenerate every experiment table (E1–E8,
// one benchmark per table — see DESIGN.md's experiment index) plus
// micro-benchmarks for the hot paths. Run:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark reports the table once (on the first
// iteration) and then times full regeneration.
package lqo_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lqo/internal/bench"
	"lqo/internal/cardest"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

var (
	envOnce sync.Once
	envVal  *bench.Env
	envErr  error
)

// sharedEnv builds one quick-scale environment reused by the per-table
// benchmarks (E2 gets a private env because it mutates the catalog).
func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	envOnce.Do(func() {
		envVal, envErr = bench.NewEnv("stats", bench.QuickScale(), 42)
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return envVal
}

var printed sync.Map

func report(b *testing.B, rep *bench.Report, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if _, dup := printed.LoadOrStore(rep.ID, true); !dup {
		b.Log("\n" + rep.String())
	}
}

func BenchmarkE1CardinalityQError(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E1Cardinality(env)
		report(b, rep, err)
	}
}

func BenchmarkE2Drift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		env, err := bench.NewEnv("stats", bench.QuickScale(), 42)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := bench.E2Drift(env, []string{"histogram", "gbdt", "naru", "spn", "factorjoin", "uae"})
		report(b, rep, err)
	}
}

func BenchmarkE3CostModel(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E3CostModel(context.Background(), env)
		report(b, rep, err)
	}
}

func BenchmarkE4JoinOrder(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E4JoinOrder(env, []int{3, 4, 5, 6, 8, 10}, 8)
		report(b, rep, err)
	}
}

func BenchmarkE5EndToEnd(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E5EndToEnd(env)
		report(b, rep, err)
	}
}

func BenchmarkE6Eraser(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E6Eraser(env)
		report(b, rep, err)
	}
}

func BenchmarkE7PilotScope(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E7PilotScope(context.Background(), env)
		report(b, rep, err)
	}
}

func BenchmarkE8Ablations(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E8Ablations(context.Background(), env)
		report(b, rep, err)
	}
}

func BenchmarkE9Throughput(b *testing.B) {
	env := sharedEnv(b)
	for i := 0; i < b.N; i++ {
		rep, err := bench.E9Throughput(context.Background(), env, []int{1, 4, 8}, 0, 1, 0)
		report(b, rep, err)
	}
}

// --- Micro-benchmarks for the hot paths the experiments exercise ---

func BenchmarkOptimizeDP4Way(b *testing.B) {
	env := sharedEnv(b)
	var q4 = pickQuery(b, env, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Base.OptimizeCtx(context.Background(), q4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeDP is the planning-cost scoreboard: bushy DP through
// the full pipeline under the histogram estimator, by query width.
// plans/op is the enumeration effort, which must not move when only the
// enumerator's speed is worked on.
func BenchmarkOptimizeDP(b *testing.B) {
	env := sharedEnv(b)
	for _, tables := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("%dway", tables), func(b *testing.B) {
			q := genQuery(b, env, tables)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := env.Base.OptimizeCtx(context.Background(), q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(env.Base.PlansConsidered()), "plans/op")
		})
	}
}

// BenchmarkHarvest times the feedback harvest a served request pays: one
// sub-query key per node of a 4-way plan, from a join graph built for the
// query (cards: opt.HarvestCards, what a miss runs) or, as a prepared
// binding derives them, from its template's graph rebound and written
// into one reused key buffer (prepared). The plan is not executed; the
// harvest does the same work whatever the run record holds.
func BenchmarkHarvest(b *testing.B) {
	env := sharedEnv(b)
	q := genQuery(b, env, 4)
	p, err := env.Base.OptimizeCtx(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cards", func(b *testing.B) {
		cards := make([]float64, len(p.Nodes()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			harvested = opt.HarvestCards(q, p, cards)
		}
	})
	b.Run("prepared", func(b *testing.B) {
		tmpl := query.NewJoinGraph(q)
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g := tmpl.Rebind(q)
			p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) { buf = g.AppendKey(buf[:0], mask) })
		}
	})
}

var harvested []opt.CardLabel

// genQuery returns a seeded FK-walk query over exactly the given number
// of tables; fresh aliases per step make any width reachable on the
// six-table schema.
func genQuery(b *testing.B, env *bench.Env, tables int) *query.Query {
	b.Helper()
	q, err := workload.GenDeepJoinQuery(env.Cat, tables, rand.New(rand.NewSource(env.Seed)), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

func BenchmarkExecuteHashJoinPlan(b *testing.B) {
	env := sharedEnv(b)
	q := pickQuery(b, env, 3)
	p, err := exec.CanonicalPlan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Ex.RunCtx(context.Background(), q, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEstimateHistogram(b *testing.B) {
	env := sharedEnv(b)
	benchmarkEstimator(b, env, "histogram")
}

func BenchmarkEstimateMSCN(b *testing.B) {
	env := sharedEnv(b)
	benchmarkEstimator(b, env, "mscn")
}

func BenchmarkEstimateSPN(b *testing.B) {
	env := sharedEnv(b)
	benchmarkEstimator(b, env, "spn")
}

func BenchmarkEstimateFactorJoin(b *testing.B) {
	env := sharedEnv(b)
	benchmarkEstimator(b, env, "factorjoin")
}

func benchmarkEstimator(b *testing.B, env *bench.Env, name string) {
	b.Helper()
	est, err := cardest.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	if err := est.Train(env.CardestContext()); err != nil {
		b.Fatal(err)
	}
	qs := make([]*workloadQuery, 0, len(env.Test))
	for _, l := range env.Test {
		qs = append(qs, &workloadQuery{l})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := qs[i%len(qs)].l
		_ = est.Estimate(l.Q)
	}
}

type workloadQuery struct{ l workload.Labeled }

func BenchmarkCandidatePlans(b *testing.B) {
	env := sharedEnv(b)
	q := pickQuery(b, env, 3)
	hints := plan.BaoHintSets()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Base.CandidatePlans(context.Background(), q, hints); err != nil {
			b.Fatal(err)
		}
	}
}

func pickQuery(b *testing.B, env *bench.Env, tables int) *query.Query {
	b.Helper()
	for _, l := range env.Test {
		if len(l.Q.Refs) == tables {
			return l.Q
		}
	}
	for _, l := range env.Train {
		if len(l.Q.Refs) == tables {
			return l.Q
		}
	}
	b.Skip(fmt.Sprintf("no %d-table query in workload", tables))
	return nil
}
