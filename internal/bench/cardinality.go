package bench

import (
	"context"
	"fmt"
	"time"

	"lqo/internal/cardest"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// E1Cardinality regenerates Table 1 as a live accuracy matrix: every
// registered estimator's held-out q-error distribution plus estimation
// overhead. Expected shape (from [12, 53, 61]): data-driven and hybrid
// methods dominate the traditional baseline on skewed correlated data;
// query-driven methods sit between, strong where the test distribution
// matches training.
func E1Cardinality(_ context.Context, env *Env) (*Report, error) {
	r := &Report{
		ID:        "E1",
		Title:     fmt.Sprintf("Cardinality estimation q-error, dataset=%s (train=%d test=%d)", env.Name, len(env.Train), len(env.Test)),
		Header:    []string{"class", "estimator", "p50", "p90", "p95", "p99", "max", "us/query"},
		WallClock: []int{7},
	}
	ctx := env.CardestContext()
	for _, inf := range cardest.Registry() {
		est := inf.Make()
		if err := est.Train(ctx); err != nil {
			return nil, fmt.Errorf("E1 %s: %w", inf.Name, err)
		}
		var qerrs []float64
		start := time.Now()
		for _, l := range env.Test {
			qerrs = append(qerrs, metrics.QError(est.Estimate(l.Q), l.Card))
		}
		perQ := float64(time.Since(start).Microseconds()) / float64(len(env.Test))
		s := metrics.Summarize(qerrs)
		r.AddRow(string(inf.Class), inf.Name, F(s.P50), F(s.P90), F(s.P95), F(s.P99), F(s.Max), F(perQ))
	}
	r.Notes = append(r.Notes,
		"q-error = max(est/true, true/est); us/query is wall-clock and machine-dependent",
	)
	return r, nil
}

// E2Drift regenerates the dynamic-data study of [61]: estimators are
// trained on the original database, the data drifts (appends with shifted
// distributions), and stale models are evaluated against the new truth —
// then retrained. Expected shape: data-driven models degrade most when
// stale (they memorized the old joint distribution) and recover fully on
// retraining; the traditional baseline degrades least.
func E2Drift(_ context.Context, env *Env) (*Report, error) {
	estimators := []string{"histogram", "gbdt", "mscn", "naru", "spn", "factorjoin", "uae"}
	r := &Report{
		ID:     "E2",
		Title:  fmt.Sprintf("Staleness under data drift, dataset=%s", env.Name),
		Header: []string{"estimator", "geo-q before", "geo-q stale", "geo-q retrained", "stale/before"},
	}
	ctx := env.CardestContext()

	// Train everything on the original data.
	models := map[string]cardest.Estimator{}
	for _, name := range estimators {
		est, err := cardest.ByName(name)
		if err != nil {
			return nil, err
		}
		if err := est.Train(ctx); err != nil {
			return nil, fmt.Errorf("E2 %s: %w", name, err)
		}
		models[name] = est
	}
	before := map[string]float64{}
	for name, est := range models {
		var qerrs []float64
		for _, l := range env.Test {
			qerrs = append(qerrs, metrics.QError(est.Estimate(l.Q), l.Card))
		}
		before[name] = metrics.GeoMean(qerrs)
	}

	// Drift the data and relabel the test queries.
	datagen.ApplyDrift(env.Cat, datagen.DriftOptions{Seed: env.Seed + 1000, Fraction: 0.8})
	freshCache := exec.NewCardCache(exec.New(env.Cat))
	var drifted []workload.Labeled
	for _, l := range env.Test {
		c, err := freshCache.TrueCard(l.Q)
		if err != nil {
			return nil, err
		}
		drifted = append(drifted, workload.Labeled{Q: l.Q, Card: c})
	}
	// New statistics + training labels for retraining.
	cs2 := stats.CollectCatalog(env.Cat, stats.Options{Seed: env.Seed + 1})
	var train2 []cardest.Sample
	for _, l := range env.Train {
		c, err := freshCache.TrueCard(l.Q)
		if err != nil {
			return nil, err
		}
		train2 = append(train2, cardest.Sample{Q: l.Q, Card: c})
	}
	ctx2 := &cardest.Context{Cat: env.Cat, Stats: cs2, Train: train2, Seed: env.Seed + 2}

	for _, name := range estimators {
		est := models[name]
		var stale []float64
		for _, l := range drifted {
			stale = append(stale, metrics.QError(est.Estimate(l.Q), l.Card))
		}
		staleG := metrics.GeoMean(stale)
		// Retrain (fresh instance) on the drifted database.
		fresh, _ := cardest.ByName(name)
		if err := fresh.Train(ctx2); err != nil {
			return nil, fmt.Errorf("E2 retrain %s: %w", name, err)
		}
		var re []float64
		for _, l := range drifted {
			re = append(re, metrics.QError(fresh.Estimate(l.Q), l.Card))
		}
		r.AddRow(name, F(before[name]), F(staleG), F(metrics.GeoMean(re)), F(staleG/before[name]))
	}
	r.Notes = append(r.Notes, "drift: +80% rows with relocated join hot-spots; stale = trained pre-drift")
	return r, nil
}
