package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lqo/internal/cardest"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// E8Ablations regenerates the design-choice ablations DESIGN.md calls
// out: Bao exploration and value-model architecture, Lero pairwise vs
// pointwise selection, MSCN's join module, SPN's correlation threshold,
// and Eraser's two stages (the last lives in E6's table).
func E8Ablations(ctx context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:     "E8",
		Title:  fmt.Sprintf("Ablations, dataset=%s", env.Name),
		Header: []string{"ablation", "variant", "metric", "value", "failed"},
	}
	lc, natLats, err := nativeBaseline(ctx, env, 8)
	if err != nil {
		return nil, err
	}
	// gmrl returns o's GMRL and how many of its plans the executor refused
	// (see optimizerLatencies).
	gmrl := func(o learnedopt.Optimizer) (string, string, error) {
		lats, failed, err := optimizerLatencies(ctx, env, o, natLats)
		if err != nil {
			return "", "", err
		}
		var rel []float64
		for i := range lats {
			rel = append(rel, lats[i]/natLats[i])
		}
		return F(metrics.GeoMean(rel)), fmt.Sprintf("%d", failed), nil
	}

	// Bao: exhaustive vs ε-greedy experience; GBDT vs TreeConv value model.
	for _, v := range []struct {
		label string
		mk    func() *learnedopt.Steering
	}{
		{"exhaustive+gbdt", learnedopt.NewBao},
		{"explore+gbdt", func() *learnedopt.Steering { b := learnedopt.NewBao(); b.Explore = true; return b }},
		{"exhaustive+treeconv", learnedopt.NewBaoTreeConv},
	} {
		b := v.mk()
		if err := b.Train(ctx, lc); err != nil {
			return nil, fmt.Errorf("E8 bao %s: %w", v.label, err)
		}
		g, failed, err := gmrl(b)
		if err != nil {
			return nil, err
		}
		r.AddRow("bao", v.label, "GMRL", g, failed)
	}

	// Lero: pairwise vs pointwise selection.
	lero := learnedopt.NewLero()
	if err := lero.Train(ctx, lc); err != nil {
		return nil, err
	}
	g, failed, err := gmrl(lero)
	if err != nil {
		return nil, err
	}
	r.AddRow("lero", "pairwise", "GMRL", g, failed)
	pw := learnedopt.NewPointwiseLero()
	if err := pw.Train(ctx, lc); err != nil {
		return nil, err
	}
	g, failed, err = gmrl(pw)
	if err != nil {
		return nil, err
	}
	r.AddRow("lero", "pointwise", "GMRL", g, failed)

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
		if err := neo.Train(ctx, lc); err != nil {
			return nil, err
		}
		g, failed, err := gmrl(neo)
		if err != nil {
			return nil, err
		}
		r.AddRow("neo", fmt.Sprintf("beam=%d", beam), "GMRL", g, failed)
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
