package bench

import (
	"context"
	"fmt"
	"math/rand"

	"lqo/internal/costmodel"
	"lqo/internal/joinorder"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// CollectPlans executes hint-steered candidate plans for the environment's
// queries, producing the (plan, latency) corpus cost-model experiments
// train on. Each example carries per-operator actuals from the pipeline's
// telemetry, so sub-plan expansion (costmodel.ExpandSubPlans) can turn
// one execution into a sample per sub-plan.
func CollectPlans(ctx context.Context, env *Env, queries []workload.Labeled) ([]costmodel.TrainPlan, error) {
	var out []costmodel.TrainPlan
	for _, l := range queries {
		plans, err := env.Base.CandidatePlans(ctx, l.Q, plan.BaoHintSets())
		if err != nil {
			return nil, err
		}
		for _, p := range plans {
			res, pt, err := env.Ex.RunAnalyze(ctx, l.Q, p)
			if err != nil {
				continue
			}
			var perOp []costmodel.OpActual
			p.Walk(func(n *plan.Node) {
				t, ok := pt.ByNode(n)
				if !ok {
					return
				}
				perOp = append(perOp, costmodel.OpActual{
					Node:        n,
					Rows:        float64(t.RowsOut),
					Work:        t.WorkUnits(),
					SubtreeWork: pt.SubtreeWork(n),
					Wall:        t.Wall,
				})
			})
			out = append(out, costmodel.TrainPlan{Q: l.Q, Plan: p, Latency: res.Stats.WorkUnits, PerOp: perOp})
		}
	}
	return out, nil
}

// E3CostModel regenerates the cost-model comparisons of [39, 51, 16, 5]:
// predicted-vs-measured rank correlation and scale error per model on
// held-out plans. Expected shape: learned models beat the traditional
// model on scale (its units are arbitrary) and match or beat its ranking;
// calibration alone fixes scale but not ranking.
func E3CostModel(ctx context.Context, env *Env) (*Report, error) {
	trainPlans, err := CollectPlans(ctx, env, env.Train)
	if err != nil {
		return nil, err
	}
	testPlans, err := CollectPlans(ctx, env, env.Test)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "E3",
		Title:  fmt.Sprintf("Learned cost models, dataset=%s (train=%d test=%d plans)", env.Name, len(trainPlans), len(testPlans)),
		Header: []string{"model", "spearman", "geo-q(latency)", "p95-q"},
	}
	mctx := &costmodel.Context{Cat: env.Cat, Stats: env.Stats, Plans: trainPlans, Seed: env.Seed + 3}
	for _, inf := range costmodel.Registry() {
		m := inf.Make()
		if err := m.Train(mctx); err != nil {
			return nil, fmt.Errorf("E3 %s: %w", inf.Name, err)
		}
		var pred, truth, qerrs []float64
		for _, tp := range testPlans {
			p := m.Predict(tp.Q, tp.Plan)
			pred = append(pred, p)
			truth = append(truth, tp.Latency)
			qerrs = append(qerrs, metrics.QError(p, tp.Latency))
		}
		s := metrics.Summarize(qerrs)
		r.AddRow(inf.Name, F(metrics.SpearmanRho(pred, truth)), F(metrics.GeoMean(qerrs)), F(s.P95))
	}
	r.Notes = append(r.Notes, "plans: DP plans under every Bao hint set, executed for true work units")
	return r, nil
}

// E4JoinOrder regenerates the join-order-search comparisons of the
// DQ/RTOS/SkinnerDB line: plan cost relative to DP-optimal per join
// count. Expected shape: RL methods close most of the random-to-DP gap
// after training; MCTS tracks DP using only per-query search; greedy sits
// near DP on easy graphs and drifts on deep ones.
func E4JoinOrder(ctx context.Context, env *Env) (*Report, error) {
	joinCounts, queriesPer := []int{3, 4, 5, 6, 8, 10}, 8
	r := &Report{
		ID:    "E4",
		Title: fmt.Sprintf("Join order search: geo cost ratio vs DP, dataset=%s", env.Name),
		Header: append([]string{"method"}, func() []string {
			var h []string
			for _, n := range joinCounts {
				h = append(h, fmt.Sprintf("n=%d", n))
			}
			return h
		}()...),
	}
	// Deep-join workloads per join count.
	rng := rand.New(rand.NewSource(env.Seed + 4))
	byCount := map[int][]*query.Query{}
	var trainAll []*query.Query
	for _, n := range joinCounts {
		for k := 0; k < queriesPer*2; k++ {
			q, err := workload.GenDeepJoinQuery(env.Cat, n, rng, 0.5)
			if err != nil {
				return nil, err
			}
			if k < queriesPer {
				byCount[n] = append(byCount[n], q)
			} else {
				trainAll = append(trainAll, q)
			}
		}
	}
	lc := &learnedopt.Context{Cat: env.Cat, Base: env.Base, Workload: trainAll, Seed: env.Seed + 5}

	dp := learnedopt.NewNative()
	if err := dp.Train(ctx, lc); err != nil {
		return nil, err
	}
	optCost := map[string]float64{}
	for _, qs := range byCount {
		for _, q := range qs {
			p, err := dp.Plan(ctx, q)
			if err != nil {
				return nil, err
			}
			optCost[q.Key()] = p.EstCost
		}
	}
	for _, inf := range joinorder.Registry() {
		s := inf.Make()
		if err := s.Train(ctx, lc); err != nil {
			return nil, fmt.Errorf("E4 %s: %w", inf.Name, err)
		}
		row := []string{inf.Name}
		for _, n := range joinCounts {
			var ratios []float64
			for _, q := range byCount[n] {
				p, err := s.Plan(ctx, q)
				if err != nil {
					if ctx.Err() != nil {
						return nil, err
					}
					continue
				}
				if oc := optCost[q.Key()]; oc > 0 {
					ratios = append(ratios, p.EstCost/oc)
				}
			}
			row = append(row, F(metrics.GeoMean(ratios)))
		}
		r.AddRow(row...)
	}
	r.Notes = append(r.Notes, "1.00 = DP-optimal under the native cost model; self-joins via fresh aliases")
	return r, nil
}

// E5EndToEnd regenerates the [12]-style end-to-end optimizer comparison:
// total and tail workload latency per end-to-end learned optimizer vs the
// native optimizer, plus per-query regression counts. Expected shape:
// steering methods (Bao/Lero) improve totals with a few regressions;
// regressions motivate E6.
func E5EndToEnd(ctx context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:     "E5",
		Title:  fmt.Sprintf("End-to-end learned optimizers, dataset=%s (%d test queries)", env.Name, len(env.Test)),
		Header: []string{"optimizer", "total work", "GMRL", "p99 rel", "regress>20%", "wins>20%", "failed"},
	}
	lc, natLats, err := nativeBaseline(ctx, env, 6)
	if err != nil {
		return nil, err
	}
	natTotal := sum(natLats)
	for _, inf := range learnedopt.Registry() {
		o := inf.Make()
		if err := o.Train(ctx, lc); err != nil {
			return nil, fmt.Errorf("E5 %s: %w", inf.Name, err)
		}
		lats, failed, err := optimizerLatencies(ctx, env, o, natLats)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", inf.Name, err)
		}
		r.AddRow(append(rowForOptimizer(inf.Name, lats, natLats, natTotal), fmt.Sprintf("%d", failed))...)
	}
	r.Notes = append(r.Notes,
		"GMRL: geometric mean of per-query latency relative to native (lower is better)",
		"failed: plans the executor refused, each charged the native plan's latency",
	)
	return r, nil
}

// nativeBaseline returns the Context learned optimizers train from —
// env's training workload at seed env.Seed+seed — and the native plan's
// latency for every test query.
func nativeBaseline(ctx context.Context, env *Env, seed int64) (*learnedopt.Context, []float64, error) {
	lc := &learnedopt.Context{
		Cat: env.Cat, Stats: env.Stats, Ex: env.Ex, Base: env.Base,
		Workload: labeledQueries(env.Train), Seed: env.Seed + seed,
	}
	native := learnedopt.NewNative()
	if err := native.Train(ctx, lc); err != nil {
		return nil, nil, err
	}
	natLats, _, err := optimizerLatencies(ctx, env, native, nil)
	return lc, natLats, err
}

func labeledQueries(ls []workload.Labeled) []*query.Query {
	out := make([]*query.Query, len(ls))
	for i, l := range ls {
		out[i] = l.Q
	}
	return out
}

// optimizerLatencies measures o's plan for every test query under ctx. A
// plan the executor refuses (an intermediate past its cap) is charged
// natLats' entry for the query, the native plan's latency — the fallback
// a learned optimizer runs on — and counted in failed; with natLats nil,
// or once ctx is done, it is an error.
func optimizerLatencies(ctx context.Context, env *Env, o learnedopt.Optimizer, natLats []float64) (lats []float64, failed int, err error) {
	for i, l := range env.Test {
		p, err := o.Plan(ctx, l.Q)
		if err != nil {
			return nil, 0, err
		}
		lat, err := learnedopt.Measure(ctx, env.Ex, l.Q, p)
		if err != nil {
			if natLats == nil || ctx.Err() != nil {
				return nil, 0, err
			}
			lat, failed = natLats[i], failed+1
		}
		lats = append(lats, lat)
	}
	return lats, failed, nil
}

func rowForOptimizer(name string, lats, natLats []float64, natTotal float64) []string {
	var rel []float64
	regress, wins := 0, 0
	for i := range lats {
		rel = append(rel, lats[i]/natLats[i])
		if lats[i] > natLats[i]*1.2 {
			regress++
		}
		if lats[i] < natLats[i]/1.2 {
			wins++
		}
	}
	s := metrics.Summarize(rel)
	return []string{
		name, F(sum(lats)), F(metrics.GeoMean(rel)), F(s.P99),
		fmt.Sprintf("%d", regress), fmt.Sprintf("%d", wins),
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// E6Eraser regenerates the Eraser paper's headline table [62]: a learned
// optimizer (Bao, exactly as evaluated in E5) regresses on some queries;
// Eraser as a plugin — validating the model's trustworthy plan structures
// and falling back to the native optimizer elsewhere — removes (nearly)
// all regressions while keeping most of the improvement. The stage-1-only
// row shows both of Eraser's stages matter.
func E6Eraser(ctx context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:     "E6",
		Title:  fmt.Sprintf("Eraser regression elimination, dataset=%s", env.Name),
		Header: []string{"configuration", "total work", "GMRL", "regress>20%", "worst rel", "failed"},
	}
	lc, natLats, err := nativeBaseline(ctx, env, 7)
	if err != nil {
		return nil, err
	}

	addRow := func(name string, lats []float64, failed int) {
		var rel []float64
		regress := 0
		worst := 0.0
		for i := range lats {
			rr := lats[i] / natLats[i]
			rel = append(rel, rr)
			if rr > 1.2 {
				regress++
			}
			if rr > worst {
				worst = rr
			}
		}
		r.AddRow(name, F(sum(lats)), F(metrics.GeoMean(rel)), fmt.Sprintf("%d", regress), F(worst), fmt.Sprintf("%d", failed))
	}
	addRow("native", natLats, 0)

	// The learned optimizer being protected: Bao, trained exactly as in E5.
	bao := learnedopt.NewBao()
	if err := bao.Train(ctx, lc); err != nil {
		return nil, err
	}
	baoLats, failed, err := optimizerLatencies(ctx, env, bao, natLats)
	if err != nil {
		return nil, err
	}
	addRow("bao (unprotected)", baoLats, failed)

	wrap := func(name string, disableClustering bool) error {
		er := learnedopt.NewEraser(bao)
		er.InnerTrained = true
		er.DisableClustering = disableClustering
		if err := er.Train(ctx, lc); err != nil {
			return err
		}
		lats, failed, err := optimizerLatencies(ctx, env, er, natLats)
		if err != nil {
			return err
		}
		addRow(name, lats, failed)
		return nil
	}
	if err := wrap("eraser(stage1 only)", true); err != nil {
		return nil, err
	}
	if err := wrap("eraser(full)", false); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes, "eraser wraps the SAME trained Bao; plugin only filters its candidate choices",
		"failed: plans the executor refused, each charged the native plan's latency")
	return r, nil
}
