package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lqo/internal/metrics"
	"lqo/internal/serve"
)

// LoadOptions are E14's parameters; tests drive RunLoad and
// e14SustainedLoad with their own.
type LoadOptions struct {
	// QPSLevels are the target arrival rates to sweep.
	QPSLevels []float64
	// Duration is the measured open-loop phase length per level.
	Duration time.Duration
	// Distinct is how many distinct queries make up the repeated mix
	// (capped at the test workload size).
	Distinct int
	// Tenants spreads requests round-robin over this many tenants.
	Tenants int
}

// loadSLOms is E14's end-to-end latency objective, in milliseconds.
const loadSLOms = 50

// LoadResult is one sustained-load measurement at a single target rate.
type LoadResult struct {
	TargetQPS   float64
	AchievedQPS float64
	N           int // requests driven in the measured phase
	HitRate     float64
	LatencyMs   metrics.Quantiles // from scheduled arrival to completion
	SLOAttained float64           // fraction of requests within loadSLOms
	ColdPlanMs  metrics.Quantiles // planning time on cache misses (warmup)
	HitPlanMs   metrics.Quantiles // planning time on cache hits
	Errors      int
	Identical   bool // served results byte-identical to uncached baselines
}

// RunLoad drives a repeated mixed workload through a serve.Server in open
// loop at the target rate: every request has a precomputed arrival time
// and latency is measured from that scheduled arrival, so queueing delay
// under overload counts against the SLO instead of silently throttling
// the client (the coordinated-omission trap a closed loop falls into).
//
// The run has two phases. A sequential warmup executes each distinct
// query once, populating the plan cache and sampling cold planning times;
// the measured phase then replays the mix at the target rate, where a
// healthy cache serves nearly every request with a hit. Served results
// are checked against uncached baseline executions of the same queries.
func RunLoad(ctx context.Context, env *Env, targetQPS float64, opts LoadOptions) (*LoadResult, error) {
	mix := env.Test[:min(opts.Distinct, len(env.Test))]
	srv := serve.New(env.Cat, env.Base, env.Ex, serve.Config{})

	// Uncached baselines: plan and execute each distinct query outside
	// the serving layer.
	baseCount := make([]int64, len(mix))
	baseValue := make([]uint64, len(mix)) // Float64bits: NaN-safe, ±0 told apart
	for i, l := range mix {
		p, err := env.Base.OptimizeCtx(ctx, l.Q)
		if err != nil {
			return nil, fmt.Errorf("E14 baseline optimize: %w", err)
		}
		res, err := env.Ex.RunCtx(ctx, l.Q, p)
		if err != nil {
			return nil, fmt.Errorf("E14 baseline run: %w", err)
		}
		baseCount[i], baseValue[i] = res.Count, math.Float64bits(res.Value)
	}

	// Warmup: one cold pass over the mix, sampling cold planning time.
	coldPlanMs := make([]float64, 0, len(mix))
	sqls := make([]string, len(mix))
	for i, l := range mix {
		sqls[i] = l.Q.SQL()
		res, err := srv.Query(ctx, fmt.Sprintf("tenant%d", i%opts.Tenants), sqls[i])
		if err != nil {
			return nil, fmt.Errorf("E14 warmup: %w", err)
		}
		coldPlanMs = append(coldPlanMs, float64(res.Plan.Microseconds())/1000.0)
	}

	total := int(targetQPS * opts.Duration.Seconds())
	if total < 1 {
		total = 1
	}
	latency := make([]float64, total)
	hitPlan := make([]float64, total)
	hit := make([]int32, total)
	var errs, mismatches atomic.Int64
	var next atomic.Int64

	workers := runtime.GOMAXPROCS(0)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				// Open loop: arrival i is scheduled at i/QPS after start,
				// whether or not earlier requests have finished.
				arrival := start.Add(time.Duration(float64(i) / targetQPS * float64(time.Second)))
				if d := time.Until(arrival); d > 0 {
					time.Sleep(d)
				}
				qi := i % len(mix)
				res, err := srv.Query(ctx, fmt.Sprintf("tenant%d", i%opts.Tenants), sqls[qi])
				latency[i] = float64(time.Since(arrival).Microseconds()) / 1000.0
				if err != nil {
					errs.Add(1)
					continue
				}
				if res.Cached {
					hit[i] = 1
					hitPlan[i] = float64(res.Plan.Microseconds()) / 1000.0
				}
				if res.Count != baseCount[qi] || math.Float64bits(res.Value) != baseValue[qi] {
					mismatches.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	hits, within := 0, 0
	var hitPlanMs []float64
	for i := 0; i < total; i++ {
		if hit[i] == 1 {
			hits++
			hitPlanMs = append(hitPlanMs, hitPlan[i])
		}
		if latency[i] <= loadSLOms {
			within++
		}
	}
	return &LoadResult{
		TargetQPS:   targetQPS,
		AchievedQPS: float64(total) / wall.Seconds(),
		N:           total,
		HitRate:     float64(hits) / float64(total),
		LatencyMs:   metrics.Summarize(latency),
		SLOAttained: float64(within) / float64(total),
		ColdPlanMs:  metrics.Summarize(coldPlanMs),
		HitPlanMs:   metrics.Summarize(hitPlanMs),
		Errors:      int(errs.Load()),
		Identical:   mismatches.Load() == 0,
	}, nil
}

// checkLoadRun is E14's per-row contract: every served answer matched its
// uncached baseline. Serving errors (admission rejections under overload)
// are load, not divergence; they stay in the report's errors column.
func checkLoadRun(res *LoadResult) error {
	if !res.Identical {
		return fmt.Errorf("E14 target qps %v: served results diverged from uncached baselines", res.TargetQPS)
	}
	return nil
}

// E14SustainedLoad measures the serving layer under open-loop sustained
// load: a mix of 8 test queries replayed for 1 s at 200 and at 1000
// qps over 4 tenants, reporting achieved throughput, plan-cache hit rate,
// tail latency against a 50 ms SLO, and the cold-vs-hit planning-time
// split the plan cache exists to buy. It fails if any served answer
// differs from its baseline (checkLoadRun).
func E14SustainedLoad(ctx context.Context, env *Env) (*Report, error) {
	return e14SustainedLoad(ctx, env, LoadOptions{
		QPSLevels: []float64{200, 1000},
		Duration:  time.Second,
		Distinct:  8,
		Tenants:   4,
	})
}

func e14SustainedLoad(ctx context.Context, env *Env, opts LoadOptions) (*Report, error) {
	r := &Report{
		ID: "E14",
		Title: fmt.Sprintf("Open-loop sustained load, dataset=%s (mix=%d queries, %s/level, workers=%d, SLO=%dms)",
			env.Name, min(opts.Distinct, len(env.Test)), opts.Duration, runtime.GOMAXPROCS(0), loadSLOms),
		Header: []string{"target qps", "achieved", "hit rate", "lat p50 ms", "lat p95 ms", "lat p99 ms", "SLO ok", "cold plan p99 ms", "hit plan p99 ms", "plan speedup", "results", "errors"},
	}
	for _, qps := range opts.QPSLevels {
		res, err := RunLoad(ctx, env, qps, opts)
		if err != nil {
			return nil, err
		}
		if err := checkLoadRun(res); err != nil {
			return nil, err
		}
		speedup := 0.0
		if res.HitPlanMs.P99 > 0 {
			speedup = res.ColdPlanMs.P99 / res.HitPlanMs.P99
		}
		r.AddRow(F(res.TargetQPS), F(res.AchievedQPS), F(res.HitRate),
			F(res.LatencyMs.P50), F(res.LatencyMs.P95), F(res.LatencyMs.P99),
			F(res.SLOAttained), F(res.ColdPlanMs.P99), F(res.HitPlanMs.P99),
			F(speedup), "identical", fmt.Sprintf("%d", res.Errors))
	}
	r.Notes = append(r.Notes,
		"open loop: latency measured from each request's scheduled arrival, so queueing under overload counts",
		"hit rate excludes the warmup pass that populates the cache; feedback-driven invalidation can replan mid-run",
		"plan speedup = cold plan p99 / cache-hit plan p99; every served answer is checked bit for bit against its uncached baseline, and any divergence fails the run",
		"wall-clock throughput and latency are machine-dependent; work-unit determinism is E9's contract",
	)
	return r, nil
}
