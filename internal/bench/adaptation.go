package bench

import (
	"context"
	"fmt"

	"lqo/internal/adapt"
	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/guard"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/serve"
	"lqo/internal/workload"
)

// truthEstimator answers execution truth from a cardinality cache — the
// oracle arm E15 scores both servers against. Sub-queries it cannot
// execute score 1 (never happens on generator workloads).
type truthEstimator struct{ cache *exec.CardCache }

func (t truthEstimator) Estimate(q *query.Query) float64 {
	c, err := t.cache.TrueCard(q)
	if err != nil {
		return 1
	}
	return metrics.ClampCard(c)
}

// E15Adaptation runs the staged-drift closed-loop scenario: one frozen
// serving arm (t0 model, no invalidation, no retraining) and one adaptive
// arm (same t0 model behind a hot-swap pointer, driven by the
// detect→retrain→gate→swap→probation loop) serve identical traffic over a
// shared catalog that drifts between stages. Both arms are scored against
// a truth-oracle planner replanned fresh each stage, so the metric —
// GMRL, geo-mean(arm work / oracle work) — isolates plan quality from
// data growth. Expected shape: the frozen arm's GMRL climbs stage over
// stage as its estimates go stale, while the adaptive arm retrains
// through the regression gate and stays near its clean-stage GMRL at
// 100% availability (the swap is atomic; no request is dropped).
//
// A clean stage is followed by 3 drift stages, each appending 60 % more
// rows under value skew 2.5 and domain shift 0.6; every stage serves 40
// queries and holds 12 out for the gate.
func E15Adaptation(ctx context.Context, env *Env) (*Report, error) {
	const (
		stages, perStage, holdOut = 3, 40, 12
		fraction, skew, shift     = 0.6, 2.5, 0.6
	)
	r := &Report{
		ID:    "E15",
		Title: fmt.Sprintf("Closed-loop adaptation under staged drift, dataset=%s", env.Name),
		Header: []string{"stage", "queries", "frozen GMRL", "adaptive GMRL",
			"frozen avail", "adaptive avail", "recent geo-q", "swaps", "rollbacks", "rejects"},
	}

	// Frozen arm: the environment's t0 optimizer behind a server with
	// feedback-driven invalidation disabled — a model nobody maintains.
	frozenSrv := serve.New(env.Cat, env.Base, env.Ex, serve.Config{InvalidateQError: -1})

	// Adaptive arm: an identically-trained t0 histogram behind a
	// Swappable, with the closed loop owning retraining and promotion.
	// Invalidation is disabled here too so the measured delta is the
	// loop, not the serving cache policy.
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: env.Cat, Stats: env.Stats, Seed: env.Seed}); err != nil {
		return nil, fmt.Errorf("E15 t0 train: %w", err)
	}
	sw := adapt.NewSwappable(hist)
	adaptOpt := opt.New(env.Cat, cost.New(env.Stats), sw)
	adaptSrv := serve.New(env.Cat, adaptOpt, env.Ex, serve.Config{InvalidateQError: -1})
	loop := adapt.NewLoop(sw, adaptSrv, adapt.NewGate(adaptOpt, env.Ex, adapt.GateConfig{}), adapt.Config{
		Seed: env.Seed,
		Cat:  env.Cat,
		Detector: adapt.DetectorConfig{
			Baseline: 48, Window: 48, Ratio: 1.3, AbsQ: 24, TripLimit: -1,
		},
		Promote:    guard.BreakerConfig{FailureThreshold: 2, Cooldown: 8},
		MinSamples: 24,
		Probation:  8,
	})
	adaptSrv.SetObserver(loop)

	for stage := 0; stage <= stages; stage++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if stage > 0 {
			datagen.ApplyDrift(env.Cat, datagen.DriftOptions{
				Seed:        env.Seed + 1000*int64(stage),
				Fraction:    fraction,
				ValueSkew:   skew,
				DomainShift: shift,
			})
		}
		// Fresh truth for this stage's regime: labels the traffic, backs
		// the oracle arm, and judges gate candidates in the world they
		// would serve.
		cache := exec.NewCardCache(env.Ex)
		ls, err := workload.GenLabeled(env.Cat, cache, workload.Options{
			Seed: env.Seed + 500*int64(stage), Count: perStage + holdOut,
			MaxJoins: 3, MaxPreds: 2,
		})
		if err != nil {
			return nil, fmt.Errorf("E15 stage %d workload: %w", stage, err)
		}
		holdout, traffic := ls[:holdOut], ls[holdOut:]
		loop.SetHoldout(holdout)
		oracleOpt := opt.New(env.Cat, cost.New(env.Stats), truthEstimator{cache: cache})

		var frozenRels, adaptRels []float64
		frozenErrs, adaptErrs := 0, 0
		for _, l := range traffic {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			p, err := oracleOpt.OptimizeCtx(ctx, l.Q)
			if err != nil {
				return nil, fmt.Errorf("E15 oracle optimize: %w", err)
			}
			ores, err := env.Ex.RunCtx(ctx, l.Q, p)
			if err != nil {
				return nil, fmt.Errorf("E15 oracle run: %w", err)
			}
			oracle := ores.Stats.WorkUnits
			sql := l.Q.SQL()

			if res, err := frozenSrv.Query(ctx, "frozen", sql); err != nil {
				frozenErrs++
			} else if oracle > 0 {
				frozenRels = append(frozenRels, res.Latency/oracle)
			}
			if res, err := adaptSrv.Query(ctx, "adaptive", sql); err != nil {
				adaptErrs++
			} else if oracle > 0 {
				adaptRels = append(adaptRels, res.Latency/oracle)
			}
			if _, err := loop.Tick(ctx); err != nil {
				return nil, fmt.Errorf("E15 loop tick: %w", err)
			}
		}
		st := loop.Stats()
		avail := func(errs int) string {
			return fmt.Sprintf("%.1f%%", 100*float64(len(traffic)-errs)/float64(len(traffic)))
		}
		r.AddRow(
			fmt.Sprintf("%d", stage),
			fmt.Sprintf("%d", len(traffic)),
			F(metrics.GeoMean(frozenRels)),
			F(metrics.GeoMean(adaptRels)),
			avail(frozenErrs),
			avail(adaptErrs),
			F(st.Detector.RecentGeoQ),
			fmt.Sprintf("%d", st.Swaps),
			fmt.Sprintf("%d", st.Rollbacks),
			fmt.Sprintf("%d", st.GateRejects),
		)
	}
	st := loop.Stats()
	r.Notes = append(r.Notes,
		"GMRL = geo-mean(served work units / truth-oracle work units); 1.0 = oracle-quality plans",
		"both servers run with feedback invalidation disabled so the measured delta is the adaptation loop alone",
		fmt.Sprintf("drift per stage: fraction=%.2f value-skew=%.1f domain-shift=%.1f; loop: swaps=%d accepted=%d rollbacks=%d gate-rejects=%d",
			fraction, skew, shift, st.Swaps, st.Accepted, st.Rollbacks, st.GateRejects),
		"deterministic given -seed: drift, workloads, plans, and work units contain no wall-clock input",
	)
	return r, nil
}
