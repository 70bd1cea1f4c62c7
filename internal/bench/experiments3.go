package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lqo/internal/cardest"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/pilotscope"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// E7PilotScope regenerates the Section 3 demonstration: the middleware's
// sample drivers (learned cardinality estimator, Bao, Lero) deployed
// through push/pull, with workload latency vs native and per-query
// middleware overhead. Expected shape: drivers match or improve native
// latency; console overhead is microseconds per query.
func E7PilotScope(ctx context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:     "E7",
		Title:  fmt.Sprintf("PilotScope middleware drivers, dataset=%s", env.Name),
		Header: []string{"driver", "total work", "GMRL", "driver us/query", "failures"},
	}
	eng, err := pilotscope.NewEngine(env.Cat, env.Seed)
	if err != nil {
		return nil, err
	}
	console := pilotscope.NewConsole(eng, env.Seed)
	var trainSQL []string
	for _, l := range env.Train {
		trainSQL = append(trainSQL, l.Q.SQL())
	}
	console.SetWorkload(trainSQL)

	// Native latencies through the console with no driver.
	if err := console.StopTask(); err != nil {
		return nil, err
	}
	natLats := make([]float64, len(env.Test))
	for i, l := range env.Test {
		res, err := console.ExecuteQuery(ctx, l.Q)
		if err != nil {
			return nil, err
		}
		natLats[i] = res.Latency
	}
	r.AddRow("(none)", F(sum(natLats)), "1.00", "-", "0")

	drivers := []pilotscope.Driver{
		pilotscope.NewCardEstDriver(cardest.NewGBDTEstimator()),
		pilotscope.NewBaoDriver(),
		pilotscope.NewLeroDriver(),
	}
	for _, d := range drivers {
		console.RegisterDriver(d)
		if err := console.StartTask(ctx, d.Name()); err != nil {
			return nil, fmt.Errorf("E7 %s: %w", d.Name(), err)
		}
		before := console.DriverFailures
		lats := make([]float64, len(env.Test))
		start := time.Now()
		var execWork float64
		for i, l := range env.Test {
			res, err := console.ExecuteQuery(ctx, l.Q)
			if err != nil {
				return nil, fmt.Errorf("E7 %s: %w", d.Name(), err)
			}
			lats[i] = res.Latency
			execWork += res.Latency
		}
		elapsed := float64(time.Since(start).Microseconds()) / float64(len(env.Test))
		var rel []float64
		for i := range lats {
			rel = append(rel, lats[i]/natLats[i])
		}
		r.AddRow(d.Name(), F(sum(lats)), F(metrics.GeoMean(rel)),
			F(elapsed), fmt.Sprintf("%d", console.DriverFailures-before))
		if err := console.StopTask(); err != nil {
			return nil, err
		}
	}
	// Index advisor: a physical-design task through the same middleware.
	// It mutates the catalog, so it runs on a private environment copy.
	if err := e7IndexAdvisor(ctx, env, r); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"total work is the deterministic latency proxy; us/query includes driver Algo + planning + execution wall time",
		"index-advisor row: physical-design task on a private catalog copy (GMRL vs its own pre-advice baseline)",
	)
	return r, nil
}

// e8WorkloadShift splits queries by join-template and compares MSCN with
// and without query masking on templates absent from training.
func e8WorkloadShift(env *Env, r *Report) error {
	template := func(q *query.Query) string {
		if len(q.Joins) == 0 {
			return "single:" + q.Refs[0].Table
		}
		keys := make([]string, len(q.Joins))
		for i, j := range q.Joins {
			a := q.TableOf(j.LeftAlias) + "." + j.LeftCol
			b := q.TableOf(j.RightAlias) + "." + j.RightCol
			if a > b {
				a, b = b, a
			}
			keys[i] = a + "=" + b
		}
		sort.Strings(keys)
		return strings.Join(keys, ",")
	}
	all := append(append([]workload.Labeled{}, env.Train...), env.Test...)
	byTemplate := map[string][]workload.Labeled{}
	var order []string
	for _, l := range all {
		k := template(l.Q)
		if len(byTemplate[k]) == 0 {
			order = append(order, k)
		}
		byTemplate[k] = append(byTemplate[k], l)
	}
	sort.Strings(order)
	var train []cardest.Sample
	var unseen []workload.Labeled
	for i, k := range order {
		if i%3 == 0 { // every third template is held out entirely
			unseen = append(unseen, byTemplate[k]...)
			continue
		}
		for _, l := range byTemplate[k] {
			train = append(train, cardest.Sample{Q: l.Q, Card: l.Card})
		}
	}
	if len(train) < 20 || len(unseen) < 10 {
		return nil // not enough template diversity at this scale
	}
	cctx := &cardest.Context{Cat: env.Cat, Stats: env.Stats, Train: train, Seed: env.Seed + 9}
	for _, v := range []struct {
		label string
		mk    func() *cardest.MSCN
	}{
		{"mscn", cardest.NewMSCN},
		{"robust-mscn", cardest.NewRobustMSCN},
	} {
		m := v.mk()
		if err := m.Train(cctx); err != nil {
			return err
		}
		var qerrs []float64
		for _, l := range unseen {
			qerrs = append(qerrs, metrics.QError(m.Estimate(l.Q), l.Card))
		}
		r.AddRow("workload-shift", v.label, "geo-q unseen templates", F(metrics.GeoMean(qerrs)))
	}
	return nil
}

// e7IndexAdvisor measures the index-advisor driver on a fresh environment.
func e7IndexAdvisor(ctx context.Context, env *Env, r *Report) error {
	priv, err := NewEnv(env.Name, env.Scale, env.Seed)
	if err != nil {
		return err
	}
	eng, err := pilotscope.NewEngine(priv.Cat, priv.Seed)
	if err != nil {
		return err
	}
	console := pilotscope.NewConsole(eng, priv.Seed)
	var trainSQL []string
	for _, l := range priv.Train {
		trainSQL = append(trainSQL, l.Q.SQL())
	}
	console.SetWorkload(trainSQL)
	before := make([]float64, len(priv.Test))
	for i, l := range priv.Test {
		res, err := console.ExecuteQuery(ctx, l.Q)
		if err != nil {
			return err
		}
		before[i] = res.Latency
	}
	adv := pilotscope.NewIndexAdvisorDriver()
	console.RegisterDriver(adv)
	if err := console.StartTask(ctx, adv.Name()); err != nil {
		return err
	}
	start := time.Now()
	after := make([]float64, len(priv.Test))
	for i, l := range priv.Test {
		res, err := console.ExecuteQuery(ctx, l.Q)
		if err != nil {
			return err
		}
		after[i] = res.Latency
	}
	elapsed := float64(time.Since(start).Microseconds()) / float64(len(priv.Test))
	var rel []float64
	for i := range after {
		rel = append(rel, after[i]/before[i])
	}
	r.AddRow("index-advisor", F(sum(after)), F(metrics.GeoMean(rel)), F(elapsed),
		fmt.Sprintf("%d idx", len(adv.Recommended())))
	return nil
}

// E8Ablations regenerates the design-choice ablations DESIGN.md calls
// out: Bao exploration and value-model architecture, Lero pairwise vs
// pointwise selection, MSCN's join module, SPN's correlation threshold,
// and Eraser's two stages (the last lives in E6's table).
func E8Ablations(ctx context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:     "E8",
		Title:  fmt.Sprintf("Ablations, dataset=%s", env.Name),
		Header: []string{"ablation", "variant", "metric", "value"},
	}
	lctx := &learnedopt.Context{
		Cat: env.Cat, Stats: env.Stats, Ex: env.Ex, Base: env.Base,
		Workload: labeledQueries(env.Train), Seed: env.Seed + 8,
	}
	native := learnedopt.NewNative()
	if err := native.Train(lctx); err != nil {
		return nil, err
	}
	natLats, err := optimizerLatencies(env, native)
	if err != nil {
		return nil, err
	}
	gmrl := func(o learnedopt.Optimizer) (string, error) {
		// Ablations run many full train+measure cycles; honor the
		// caller's deadline between groups (Plan/Measure go through the
		// ctx-free learnedopt.Optimizer interface, so this boundary is
		// where cancellation is observed).
		if err := ctx.Err(); err != nil {
			return "", err
		}
		lats, err := optimizerLatencies(env, o)
		if err != nil {
			return "", err
		}
		var rel []float64
		for i := range lats {
			rel = append(rel, lats[i]/natLats[i])
		}
		return F(metrics.GeoMean(rel)), nil
	}

	// Bao: exhaustive vs ε-greedy experience; GBDT vs TreeConv value model.
	for _, v := range []struct {
		label string
		mk    func() *learnedopt.Bao
	}{
		{"exhaustive+gbdt", learnedopt.NewBao},
		{"explore+gbdt", func() *learnedopt.Bao { b := learnedopt.NewBao(); b.Explore = true; return b }},
		{"exhaustive+treeconv", learnedopt.NewBaoTreeConv},
	} {
		b := v.mk()
		if err := b.Train(lctx); err != nil {
			return nil, fmt.Errorf("E8 bao %s: %w", v.label, err)
		}
		g, err := gmrl(b)
		if err != nil {
			return nil, err
		}
		r.AddRow("bao", v.label, "GMRL", g)
	}

	// Lero: pairwise vs pointwise selection.
	lero := learnedopt.NewLero()
	if err := lero.Train(lctx); err != nil {
		return nil, err
	}
	g, err := gmrl(lero)
	if err != nil {
		return nil, err
	}
	r.AddRow("lero", "pairwise", "GMRL", g)
	pw := learnedopt.NewPointwiseLero()
	if err := pw.Train(lctx); err != nil {
		return nil, err
	}
	g, err = gmrl(pw)
	if err != nil {
		return nil, err
	}
	r.AddRow("lero", "pointwise", "GMRL", g)

	// MSCN: with vs without the join module.
	cctx := env.CardestContext()
	for _, v := range []struct {
		label string
		mk    func() *cardest.MSCN
	}{
		{"full", cardest.NewMSCN},
		{"no-join-module", func() *cardest.MSCN { m := cardest.NewMSCN(); m.NoJoinModule = true; return m }},
	} {
		m := v.mk()
		if err := m.Train(cctx); err != nil {
			return nil, err
		}
		var qerrs []float64
		for _, l := range env.Test {
			qerrs = append(qerrs, metrics.QError(m.Estimate(l.Q), l.Card))
		}
		r.AddRow("mscn", v.label, "geo-q", F(metrics.GeoMean(qerrs)))
	}

	// SPN: correlation threshold sweep.
	for _, thr := range []float64{0.1, 0.3, 0.6, 1.01} {
		s := cardest.NewSPNEstimator()
		s.CorrThr = thr
		if err := s.Train(cctx); err != nil {
			return nil, err
		}
		var qerrs []float64
		for _, l := range env.Test {
			qerrs = append(qerrs, metrics.QError(s.Estimate(l.Q), l.Card))
		}
		r.AddRow("spn", fmt.Sprintf("corr-thr=%.2f", thr), "geo-q", F(metrics.GeoMean(qerrs)))
	}

	// Robust-MSCN: train on a subset of join templates, evaluate on unseen
	// templates (the workload-shift setting query masking targets).
	if err := e8WorkloadShift(env, r); err != nil {
		return nil, err
	}

	// Neo: beam-width sweep.
	for _, beam := range []int{1, 4, 8} {
		neo := learnedopt.NewNeo()
		neo.Beam = beam
		if err := neo.Train(lctx); err != nil {
			return nil, err
		}
		g, err := gmrl(neo)
		if err != nil {
			return nil, err
		}
		r.AddRow("neo", fmt.Sprintf("beam=%d", beam), "GMRL", g)
	}

	// Enumeration effort and plan space: bushy DP vs left-deep DP vs
	// greedy per join count.
	leftDeep := *env.Base
	leftDeep.LeftDeepOnly = true
	for _, n := range []int{4, 6, 8, 10} {
		q, err := workload.GenDeepJoinQuery(env.Cat, n, rand.New(rand.NewSource(env.Seed+int64(n))), 0.5)
		if err != nil {
			return nil, err
		}
		bushy, err := env.Base.OptimizeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		r.AddRow("enumeration", fmt.Sprintf("dp-bushy n=%d", n), "plans", fmt.Sprintf("%d", env.Base.PlansConsidered()))
		ld, err := leftDeep.OptimizeCtx(ctx, q)
		if err != nil {
			return nil, err
		}
		r.AddRow("enumeration", fmt.Sprintf("dp-leftdeep n=%d", n), "plans", fmt.Sprintf("%d", leftDeep.PlansConsidered()))
		if bushy.EstCost > 0 {
			r.AddRow("plan-space", fmt.Sprintf("leftdeep/bushy n=%d", n), "cost ratio", F(ld.EstCost/bushy.EstCost))
		}
		if _, err := env.Base.OptimizeGreedyCtx(ctx, q); err != nil {
			return nil, err
		}
		r.AddRow("enumeration", fmt.Sprintf("greedy n=%d", n), "plans", fmt.Sprintf("%d", env.Base.PlansConsidered()))
	}
	return r, nil
}
