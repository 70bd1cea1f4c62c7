package bench

import (
	"context"
	"fmt"
	"math"
	"time"

	"lqo/internal/cardest"
	"lqo/internal/metrics"
	"lqo/internal/pilotscope"
)

// E7PilotScope regenerates the Section 3 demonstration: the middleware's
// sample drivers (learned cardinality estimator, Bao, Lero) deployed
// through push/pull, with workload latency vs native and per-query
// middleware overhead. Expected shape: drivers match or improve native
// latency; console overhead is microseconds per query. It fails if any
// steered query's answer differs from the native run (checkSteered).
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
	natives := make([]*pilotscope.Result, len(env.Test))
	natLats := make([]float64, len(env.Test))
	for i, l := range env.Test {
		res, err := console.ExecuteQuery(ctx, l.Q)
		if err != nil {
			return nil, err
		}
		natives[i], natLats[i] = res, res.Latency
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
			if err := checkSteered(d.Name(), i, natives[i], res); err != nil {
				return nil, err
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
	natives := make([]*pilotscope.Result, len(priv.Test))
	for i, l := range priv.Test {
		res, err := console.ExecuteQuery(ctx, l.Q)
		if err != nil {
			return err
		}
		natives[i] = res
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
		if err := checkSteered(adv.Name(), i, natives[i], res); err != nil {
			return err
		}
		after[i] = res.Latency
	}
	elapsed := float64(time.Since(start).Microseconds()) / float64(len(priv.Test))
	var rel []float64
	for i := range after {
		rel = append(rel, after[i]/natives[i].Latency)
	}
	r.AddRow("index-advisor", F(sum(after)), F(metrics.GeoMean(rel)), F(elapsed),
		fmt.Sprintf("%d idx", len(adv.Recommended())))
	return nil
}

// checkSteered is E7's per-query contract: a driver may change the plan,
// never the answer. Count and Value must match the native run bit for bit.
func checkSteered(driver string, i int, native, steered *pilotscope.Result) error {
	if steered.Count != native.Count || math.Float64bits(steered.Value) != math.Float64bits(native.Value) {
		return fmt.Errorf("E7 %s: test query %d answered count=%d value=%v, native count=%d value=%v",
			driver, i, steered.Count, steered.Value, native.Count, native.Value)
	}
	return nil
}
