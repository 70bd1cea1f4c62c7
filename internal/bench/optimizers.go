package bench

import (
	"context"
	"fmt"
	"math/rand"

	"lqo/internal/costmodel"
	"lqo/internal/joinorder"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/opt"
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

// planner is one registered learned planner: its name, its class in the
// tutorial's taxonomy and its constructor.
type planner struct {
	Name, Class string
	Make        func() learnedopt.Optimizer
}

// planners lists every planner the workbench ships, each once: the
// native DP first — E5's reference row — then the join-order searchers
// of Section 2.1.3 and the end-to-end optimizers of Section 2.2.
var planners = []planner{
	{"native", "baseline", func() learnedopt.Optimizer { return learnedopt.NewNative() }},
	{"greedy", "baseline", func() learnedopt.Optimizer { return joinorder.NewGreedy() }},
	{"random", "baseline", func() learnedopt.Optimizer { return joinorder.NewRandom() }},
	{"dq", "offline-RL join order", func() learnedopt.Optimizer { return joinorder.NewDQ() }},
	{"rejoin", "offline-RL join order", func() learnedopt.Optimizer { return joinorder.NewReJoin() }},
	{"rtos", "offline-RL join order", func() learnedopt.Optimizer { return joinorder.NewRTOS() }},
	{"skinner-mcts", "online join order", func() learnedopt.Optimizer { return joinorder.NewMCTS() }},
	{"eddy", "online join order", func() learnedopt.Optimizer { return joinorder.NewEddy() }},
	{"bao", "hint steering", func() learnedopt.Optimizer { return learnedopt.NewBao() }},
	{"lero", "pairwise ranking", func() learnedopt.Optimizer { return learnedopt.NewLero() }},
	{"neo", "value-based search", func() learnedopt.Optimizer { return learnedopt.NewNeo() }},
	{"loger", "value-based search", func() learnedopt.Optimizer { return learnedopt.NewLOGER() }},
	{"leon", "pairwise ranking", func() learnedopt.Optimizer { return learnedopt.NewLEON() }},
	{"hyperqo", "regression elimination", func() learnedopt.Optimizer { return learnedopt.NewHyperQO() }},
}

// deepJoinCounts are the table counts of E5's deep-join sets.
var deepJoinCounts = []int{3, 4, 5, 6, 8, 10}

// deepJoinSets draws E5's deep-join sets, 8 queries per entry of
// deepJoinCounts, with self-joins via fresh aliases.
func deepJoinSets(env *Env) ([][]*query.Query, error) {
	const queriesPer = 8
	rng := rand.New(rand.NewSource(env.Seed + 4))
	sets := make([][]*query.Query, len(deepJoinCounts))
	for i, n := range deepJoinCounts {
		for k := 0; k < queriesPer; k++ {
			q, err := workload.GenDeepJoinQuery(env.Cat, n, rng, 0.5)
			if err != nil {
				return nil, err
			}
			sets[i] = append(sets[i], q)
		}
	}
	return sets, nil
}

// E5EndToEnd judges every registered planner, trained once, in one
// table: its executed work on the test queries relative to the native
// plan ([12]-style), and the estimated cost of its plans for the deep-join
// sets relative to the native DP's, all re-costed under the native model
// (the DQ/RTOS/SkinnerDB line). Deep joins are planned, not executed: the
// executor refuses some of the DP's own plans there. Expected shape:
// steering methods improve totals with a few regressions (motivating
// E6); RL search closes most of the random-to-DP cost gap; MCTS tracks DP.
func E5EndToEnd(ctx context.Context, env *Env) (*Report, error) {
	sets, err := deepJoinSets(env)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "E5",
		Title:  fmt.Sprintf("Learned planners, dataset=%s (%d test queries, %d deep joins per n)", env.Name, len(env.Test), len(sets[0])),
		Header: []string{"class", "planner", "total work", "GMRL", "p99 rel", "regress>20%", "wins>20%", "failed"},
	}
	for _, n := range deepJoinCounts {
		r.Header = append(r.Header, fmt.Sprintf("n=%d", n))
	}
	lc := trainingContext(env, 6)
	var natLats []float64
	var natCosts [][]float64
	for _, pl := range planners {
		o := pl.Make()
		if err := o.Train(ctx, lc); err != nil {
			return nil, fmt.Errorf("E5 %s: %w", pl.Name, err)
		}
		lats, failed, err := optimizerLatencies(ctx, env, o, natLats)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", pl.Name, err)
		}
		costs, err := deepCosts(ctx, env.Base, o, sets, natCosts == nil)
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", pl.Name, err)
		}
		if natLats == nil { // planners[0], the native DP, is the reference
			natLats, natCosts = lats, costs
		}
		row := rowForOptimizer(pl, lats, natLats, failed)
		for i := range costs {
			var ratios []float64
			for j, c := range costs[i] {
				if c > 0 && natCosts[i][j] > 0 {
					ratios = append(ratios, c/natCosts[i][j])
				}
			}
			row = append(row, F(metrics.GeoMean(ratios)))
		}
		r.AddRow(row...)
	}
	r.Notes = append(r.Notes,
		"GMRL: geometric mean of per-query latency relative to native (lower is better)",
		"failed: plans the executor refused, each charged the native plan's latency",
		"n=k: geometric mean estimated-cost ratio vs the native DP on k-table deep joins, every plan re-costed under the native model",
	)
	return r, nil
}

// deepCosts plans every query of sets with o and returns each plan's
// nativeCost, 0 where o declines to plan; with ref set — o is the
// reference — or once ctx is done, declining is an error.
func deepCosts(ctx context.Context, base *opt.Optimizer, o learnedopt.Optimizer, sets [][]*query.Query, ref bool) ([][]float64, error) {
	costs := make([][]float64, len(sets))
	for i, qs := range sets {
		costs[i] = make([]float64, len(qs))
		for j, q := range qs {
			p, err := o.Plan(ctx, q)
			if err != nil {
				if ref || ctx.Err() != nil {
					return nil, err
				}
				continue
			}
			costs[i][j] = nativeCost(base, q, p)
		}
	}
	return costs, nil
}

// nativeCost re-costs p for q as base would: every node's cardinality
// from base's estimator, every operator under base's cost model. A
// planner's own EstCost may come from other estimates (Lero plans under
// scaled cardinalities), so only this puts all plans on one scale.
func nativeCost(base *opt.Optimizer, q *query.Query, p *plan.Node) float64 {
	g := query.NewJoinGraph(q)
	c := p.CloneNodes()
	c.WalkLogicalMasks(g, func(n *plan.Node, mask uint64) {
		n.EstCard = metrics.SanitizeCard(base.Est.Estimate(g.Sub(mask)))
	})
	return base.Cost.PlanCost(c)
}

// trainingContext is the Context learned planners train from: env's
// training workload at seed env.Seed+seed.
func trainingContext(env *Env, seed int64) *learnedopt.Context {
	lc := &learnedopt.Context{Cat: env.Cat, Stats: env.Stats, Ex: env.Ex, Base: env.Base, Seed: env.Seed + seed}
	for _, l := range env.Train {
		lc.Workload = append(lc.Workload, l.Q)
	}
	return lc
}

// nativeBaseline returns trainingContext(env, seed) and the native plan's
// latency for every test query.
func nativeBaseline(ctx context.Context, env *Env, seed int64) (*learnedopt.Context, []float64, error) {
	lc := trainingContext(env, seed)
	native := learnedopt.NewNative()
	if err := native.Train(ctx, lc); err != nil {
		return nil, nil, err
	}
	natLats, _, err := optimizerLatencies(ctx, env, native, nil)
	return lc, natLats, err
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

// rowForOptimizer is pl's row of E5's executed columns: total work, GMRL,
// p99 and regressions and wins past 20 %, all relative to natLats, and
// how many plans the executor refused.
func rowForOptimizer(pl planner, lats, natLats []float64, failed int) []string {
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
		pl.Class, pl.Name, F(sum(lats)), F(metrics.GeoMean(rel)), F(s.P99),
		fmt.Sprintf("%d", regress), fmt.Sprintf("%d", wins), fmt.Sprintf("%d", failed),
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
