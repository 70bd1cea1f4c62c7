// Command lqo-bench regenerates the workbench's experiment tables E1–E10
// and E14–E16 (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results). An unknown experiment id exits 2.
//
// Usage:
//
//	lqo-bench -exp all                 # every experiment, quick scale
//	lqo-bench -exp E1,E3 -dataset job  # selected experiments
//	lqo-bench -exp E5 -scale full      # DESIGN.md-scale run (slow)
//	lqo-bench -exp E9 -parallel 8      # concurrent throughput, 1 vs 8 goroutines
//	lqo-bench -exp E14 -load-qps 500   # open-loop sustained load through the serving layer
//	lqo-bench -exp E15 -adapt-stages 4 # closed-loop adaptation under staged drift
//	lqo-bench -exp E16 -shards 1,2,4   # sharded scatter-gather vs unsharded reference
//	lqo-bench -chaos                   # E10 guardrails under fault injection
//	lqo-bench -chaos -chaos-rates 0,0.25 -chaos-timeout 2ms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"lqo/internal/bench"
)

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids (E1..E10, E14..E16) or 'all'")
		datasetFlag = flag.String("dataset", "stats", "dataset: stats | job | tpch")
		scaleFlag   = flag.String("scale", "quick", "scale: quick | full")
		seedFlag    = flag.Int64("seed", 42, "master random seed")
		parallel    = flag.Int("parallel", 8, "E9 goroutine count, compared against a serial run")
		execWorkers = flag.Int("exec-workers", 0, "E9 intra-query executor workers per goroutine (0 = serial operators)")
		repeatFlag  = flag.Int("repeat", 3, "E9 passes over the workload per measurement")
		batchFlag   = flag.Int("batch", 0, "E9 executor batch size in tuples (0 = exec default); results are identical at every setting")

		loadQPS      = flag.String("load-qps", "200,1000", "E14 comma-separated target arrival rates")
		loadDur      = flag.Duration("load-dur", time.Second, "E14 measured duration per rate level")
		loadDistinct = flag.Int("load-distinct", 8, "E14 distinct queries in the repeated mix")
		loadWorkers  = flag.Int("load-workers", 0, "E14 serving goroutines (0 = GOMAXPROCS)")
		loadSLO      = flag.Float64("load-slo", 50, "E14 end-to-end latency SLO in milliseconds")

		adaptStages   = flag.Int("adapt-stages", 3, "E15 drift stages after the clean stage")
		adaptTraffic  = flag.Int("adapt-traffic", 40, "E15 served queries per stage")
		adaptHoldout  = flag.Int("adapt-holdout", 12, "E15 gate holdout size per stage")
		adaptFraction = flag.Float64("adapt-fraction", 0.6, "E15 appended-row fraction per drift stage")

		shardsFlag = flag.String("shards", "1,2,4", "E16 comma-separated shard fan-outs (1 = unsharded baseline)")

		chaosFlag    = flag.Bool("chaos", false, "shorthand for -exp E10: guardrail runtime under fault injection")
		chaosRates   = flag.String("chaos-rates", "0,0.01,0.10", "E10 comma-separated fault rates in [0,1]")
		chaosTimeout = flag.Duration("chaos-timeout", 5*time.Millisecond, "E10 per-decision budget for the learned planner")
		chaosHang    = flag.Duration("chaos-hang", 20*time.Millisecond, "E10 injected hang duration (finite; > timeout)")
	)
	flag.Parse()

	sc := bench.QuickScale()
	if *scaleFlag == "full" {
		sc = bench.FullScale()
	}

	var rates []float64
	for _, s := range strings.Split(*chaosRates, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(s, "%g", &v); err != nil || v < 0 || v > 1 {
			fatal(fmt.Errorf("bad -chaos-rates entry %q", s))
		}
		rates = append(rates, v)
	}

	// The root context of the whole run. Context-aware experiments
	// (middleware, chaos, plan collection) thread it through to every
	// query; a future -timeout flag or signal handler only needs to
	// wrap it here.
	ctx := context.Background()

	type runner struct {
		id  string
		run func(ctx context.Context, env *bench.Env) (*bench.Report, error)
	}
	runners := []runner{
		{"E1", func(_ context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E1Cardinality(env)
		}},
		{"E2", func(_ context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E2Drift(env, []string{"histogram", "gbdt", "mscn", "naru", "spn", "factorjoin", "uae"})
		}},
		{"E3", bench.E3CostModel},
		{"E4", func(_ context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E4JoinOrder(env, []int{3, 4, 5, 6, 8, 10}, 8)
		}},
		{"E5", func(_ context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E5EndToEnd(env)
		}},
		{"E6", func(_ context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E6Eraser(env)
		}},
		{"E7", bench.E7PilotScope},
		{"E8", bench.E8Ablations},
		{"E9", func(ctx context.Context, env *bench.Env) (*bench.Report, error) {
			gs := []int{1}
			if *parallel > 1 {
				gs = append(gs, *parallel)
			}
			return bench.E9Throughput(ctx, env, gs, *execWorkers, *repeatFlag, *batchFlag)
		}},
		{"E10", func(ctx context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E10Chaos(ctx, env, bench.ChaosOptions{Rates: rates, Timeout: *chaosTimeout, Hang: *chaosHang})
		}},
		{"E14", func(ctx context.Context, env *bench.Env) (*bench.Report, error) {
			var levels []float64
			for _, s := range strings.Split(*loadQPS, ",") {
				s = strings.TrimSpace(s)
				if s == "" {
					continue
				}
				var v float64
				if _, err := fmt.Sscanf(s, "%g", &v); err != nil || v <= 0 {
					return nil, fmt.Errorf("bad -load-qps entry %q", s)
				}
				levels = append(levels, v)
			}
			return bench.E14SustainedLoad(ctx, env, bench.LoadOptions{
				QPSLevels:  levels,
				Duration:   *loadDur,
				Distinct:   *loadDistinct,
				Goroutines: *loadWorkers,
				SLOms:      *loadSLO,
			})
		}},
		{"E15", func(ctx context.Context, env *bench.Env) (*bench.Report, error) {
			return bench.E15Adaptation(ctx, env, bench.AdaptOptions{
				Stages:   *adaptStages,
				Traffic:  *adaptTraffic,
				Holdout:  *adaptHoldout,
				Fraction: *adaptFraction,
			})
		}},
		{"E16", func(ctx context.Context, env *bench.Env) (*bench.Report, error) {
			var counts []int
			for _, s := range strings.Split(*shardsFlag, ",") {
				s = strings.TrimSpace(s)
				if s == "" {
					continue
				}
				var v int
				if _, err := fmt.Sscanf(s, "%d", &v); err != nil || v < 1 {
					return nil, fmt.Errorf("bad -shards entry %q", s)
				}
				counts = append(counts, v)
			}
			return bench.E16Sharding(ctx, env, counts, *repeatFlag)
		}},
	}

	spec := *expFlag
	if *chaosFlag {
		spec = "E10"
	}
	known := make([]string, len(runners))
	for i, r := range runners {
		known[i] = r.id
	}
	want, err := selectExperiments(spec, known)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lqo-bench:", err)
		os.Exit(2)
	}

	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		// Fresh environment per experiment: E2 mutates the catalog (drift)
		// and models must never leak across experiments.
		env, err := bench.NewEnv(*datasetFlag, sc, *seedFlag)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		rep, err := r.run(ctx, env)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.id, err))
		}
		fmt.Println(rep.String())
		fmt.Printf("(%s completed in %s)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments resolves an -exp value against the known experiment
// ids: "all" selects every one, otherwise a comma-separated list (case
// and surrounding space ignored). An unknown id is an error naming the
// known ones, so a typo never exits 0 having run nothing.
func selectExperiments(spec string, known []string) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "all" {
		for _, id := range known {
			want[id] = true
		}
		return want, nil
	}
	for _, id := range strings.Split(spec, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if !slices.Contains(known, id) {
			return nil, fmt.Errorf("unknown experiment %q (known: %s, or all)", id, strings.Join(known, ", "))
		}
		want[id] = true
	}
	return want, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lqo-bench:", err)
	os.Exit(1)
}
