// Package lqo's root benchmarks regenerate experiment tables E1–E9 (one
// benchmark per table, each run from bench.Experiments with its fixed
// parameters — see DESIGN.md's experiment index) plus micro-benchmarks
// for the hot paths. Run:
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
	"slices"
	"sync"
	"testing"

	"lqo/internal/bench"
	"lqo/internal/cardest"
	"lqo/internal/exec"
	"lqo/internal/feedback"
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

// freshEnv builds a private quick-scale environment, for E2, which
// mutates its catalog.
func freshEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv("stats", bench.QuickScale(), 42)
	if err != nil {
		b.Fatal(err)
	}
	return env
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

// benchExperiment regenerates experiment id from bench.Experiments b.N
// times, each on the environment newEnv returns.
func benchExperiment(b *testing.B, id string, newEnv func(*testing.B) *bench.Env) {
	b.Helper()
	i := slices.IndexFunc(bench.Experiments, func(e bench.Experiment) bool { return e.ID == id })
	if i < 0 {
		b.Fatalf("no experiment %s", id)
	}
	for n := 0; n < b.N; n++ {
		rep, err := bench.Experiments[i].Run(context.Background(), newEnv(b))
		report(b, rep, err)
	}
}

func BenchmarkE1CardinalityQError(b *testing.B) { benchExperiment(b, "E1", sharedEnv) }
func BenchmarkE2Drift(b *testing.B)             { benchExperiment(b, "E2", freshEnv) }
func BenchmarkE3CostModel(b *testing.B)         { benchExperiment(b, "E3", sharedEnv) }
func BenchmarkE5EndToEnd(b *testing.B)          { benchExperiment(b, "E5", sharedEnv) }
func BenchmarkE6Eraser(b *testing.B)            { benchExperiment(b, "E6", sharedEnv) }
func BenchmarkE7PilotScope(b *testing.B)        { benchExperiment(b, "E7", sharedEnv) }
func BenchmarkE8Ablations(b *testing.B)         { benchExperiment(b, "E8", sharedEnv) }
func BenchmarkE9Throughput(b *testing.B)        { benchExperiment(b, "E9", sharedEnv) }

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

// perMask hides an estimator's graph method (opt.GraphEstimator): the
// planner asks it once per mask.
type perMask struct{ opt.CardEstimator }

// BenchmarkOptimizeDP is the planning-cost scoreboard: bushy DP through
// the full pipeline by query width, under the histogram estimator (the
// unprefixed cells), under spn, the estimator the repo benchmark's
// cold_plan workload plans with, and under spn behind perMask, the path
// of every estimator that cannot answer a join graph at once (fallback/).
// plans/op is the enumeration effort, which must not move when only the
// enumerator's speed is worked on.
func BenchmarkOptimizeDP(b *testing.B) {
	env := sharedEnv(b)
	spn := cardest.NewSPNEstimator()
	if err := spn.Train(env.CardestContext()); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		prefix string
		o      *opt.Optimizer
	}{{"", env.Base}, {"spn/", env.Base.WithEstimator(spn)}, {"fallback/", env.Base.WithEstimator(perMask{spn})}} {
		for _, tables := range []int{2, 4, 6, 8} {
			b.Run(fmt.Sprintf("%s%dway", c.prefix, tables), func(b *testing.B) {
				q := genQuery(b, env, tables)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.o.OptimizeCtx(context.Background(), q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.o.PlansConsidered()), "plans/op")
			})
		}
	}
}

// BenchmarkHarvest times the feedback harvest a served request runs over
// a 4-way plan's run record (feedback.Store): a miss writes one sub-query
// key per node through the join graph it planned with (miss); a
// binding's first hit rebinds its template's graph and records the slots
// it writes (rebound); a later hit of that binding writes by slot, with
// no graph and no key (memoized). The plan is not executed; the harvest
// does the same work whatever the run record holds.
func BenchmarkHarvest(b *testing.B) {
	env := sharedEnv(b)
	q := genQuery(b, env, 4)
	p, err := env.Base.OptimizeCtx(context.Background(), q)
	if err != nil {
		b.Fatal(err)
	}
	g, cards := query.NewJoinGraph(q), make([]float64, len(p.Nodes()))
	st, rec := feedback.NewStore(), &feedback.Record{}
	st.Lock()
	st.Harvest(g, p, cards, rec)
	st.Unlock()
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"miss", func() { st.Harvest(g, p, cards, nil) }},
		{"rebound", func() { st.Harvest(g.Rebind(q), p, cards, rec) }},
		{"memoized", func() {
			if st.Current(rec) {
				st.Write(rec, cards)
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.Lock()
				c.run()
				st.Unlock()
			}
		})
	}
}

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
