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

// LoadOptions configures the E14 open-loop sustained-load benchmark.
type LoadOptions struct {
	// QPSLevels are the target arrival rates to sweep (default {200, 1000}).
	QPSLevels []float64
	// Duration is the measured open-loop phase length per level
	// (default 1s).
	Duration time.Duration
	// Distinct is how many distinct queries make up the repeated mix
	// (default 8, capped at the test workload size).
	Distinct int
	// Goroutines is the serving worker count (default GOMAXPROCS).
	Goroutines int
	// Tenants spreads requests round-robin over this many tenants
	// (default 4).
	Tenants int
	// SLOms is the end-to-end latency objective used for attainment
	// reporting (default 50ms).
	SLOms float64
	// Serve overrides the server configuration (zero = serve defaults).
	Serve serve.Config
}

func (o LoadOptions) withDefaults(env *Env) LoadOptions {
	if len(o.QPSLevels) == 0 {
		o.QPSLevels = []float64{200, 1000}
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.Distinct <= 0 {
		o.Distinct = 8
	}
	if o.Distinct > len(env.Test) {
		o.Distinct = len(env.Test)
	}
	if o.Goroutines <= 0 {
		o.Goroutines = runtime.GOMAXPROCS(0)
	}
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.SLOms <= 0 {
		o.SLOms = 50
	}
	return o
}

// LoadResult is one sustained-load measurement at a single target rate.
type LoadResult struct {
	TargetQPS   float64
	AchievedQPS float64
	N           int // requests driven in the measured phase
	HitRate     float64
	LatencyMs   metrics.Quantiles // from scheduled arrival to completion
	SLOAttained float64           // fraction of requests within SLOms
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
	opts = opts.withDefaults(env)
	mix := env.Test[:opts.Distinct]
	srv := serve.New(env.Cat, env.Base, env.Ex, opts.Serve)

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

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(opts.Goroutines)
	for w := 0; w < opts.Goroutines; w++ {
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
		if latency[i] <= opts.SLOms {
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
// load: a mixed repeated workload replayed at each target rate, reporting
// achieved throughput, plan-cache hit rate, tail latency against the SLO,
// and the cold-vs-hit planning-time split the plan cache exists to buy.
// It fails if any served answer differs from its baseline (checkLoadRun).
func E14SustainedLoad(ctx context.Context, env *Env, opts LoadOptions) (*Report, error) {
	opts = opts.withDefaults(env)
	r := &Report{
		ID: "E14",
		Title: fmt.Sprintf("Open-loop sustained load, dataset=%s (mix=%d queries, %s/level, workers=%d, SLO=%.0fms)",
			env.Name, opts.Distinct, opts.Duration, opts.Goroutines, opts.SLOms),
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
