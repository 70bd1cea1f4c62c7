package bench

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lqo/internal/exec"
	"lqo/internal/metrics"
)

// ConcurrentOptions configures the concurrent workload runner.
type ConcurrentOptions struct {
	// Goroutines is the inter-query parallelism degree G: how many
	// worker goroutines pull queries from the shared stream. <=0 means 1.
	Goroutines int
	// ExecWorkers is the intra-query parallelism handed to each
	// executor (Executor.Workers). <=0 means serial operators.
	ExecWorkers int
	// Repeat runs the whole workload this many times (more samples for
	// stable QPS numbers). <=0 means 1.
	Repeat int
	// BatchSize is the tuples-per-batch knob handed to each executor
	// (Executor.BatchSize). <=0 means exec.DefaultBatchSize. Results are
	// identical at every setting; only memory/wall-clock trade off.
	BatchSize int
}

// ConcurrentResult is one concurrent run's measurement: throughput and
// wall-clock latency quantiles alongside the deterministic work-unit
// metrics the workbench is judged by.
type ConcurrentResult struct {
	Goroutines  int
	ExecWorkers int
	N           int           // queries driven (workload × repeats)
	Wall        time.Duration // total wall-clock for the run
	QPS         float64       // N / Wall
	LatencyMs   metrics.Quantiles
	// WorkUnits holds per-query charged work in workload order (first
	// pass only): the deterministic latency proxy, identical at every
	// Goroutines/ExecWorkers setting by construction.
	WorkUnits []float64
	Errors    int
}

// RunConcurrent drives the workload across opts.Goroutines goroutines.
// The environment's optimizer and catalog are shared (both are safe for
// concurrent readers); each goroutine gets its own executor and each
// query execution its own plan tree, so no per-query state is shared.
func RunConcurrent(ctx context.Context, env *Env, opts ConcurrentOptions) (*ConcurrentResult, error) {
	qs := env.Test
	if len(qs) == 0 {
		return nil, fmt.Errorf("bench: concurrent run has no queries")
	}
	g := opts.Goroutines
	if g < 1 {
		g = 1
	}
	repeat := opts.Repeat
	if repeat < 1 {
		repeat = 1
	}
	total := len(qs) * repeat

	// Longest-processing-time-first schedule: synthetic SPJ workloads are
	// heavily skewed (a few star joins dominate total runtime), and FIFO
	// dispatch strands a monster query on one goroutine at the end of the
	// run. Starting the heaviest queries first keeps the pool balanced.
	// True cardinality is the free cost proxy every labeled query carries.
	schedule := make([]int, total)
	for i := range schedule {
		schedule[i] = i
	}
	sort.SliceStable(schedule, func(a, b int) bool {
		return qs[schedule[a]%len(qs)].Card > qs[schedule[b]%len(qs)].Card
	})

	latency := make([]float64, total)
	work := make([]float64, len(qs))
	var errs atomic.Int64
	var next atomic.Int64

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(g)
	for w := 0; w < g; w++ {
		go func() {
			defer wg.Done()
			ex := exec.New(env.Cat)
			ex.Workers = opts.ExecWorkers
			ex.BatchSize = opts.BatchSize
			for {
				si := int(next.Add(1)) - 1
				if si >= total {
					return
				}
				i := schedule[si]
				l := qs[i%len(qs)]
				t0 := time.Now()
				p, err := env.Base.OptimizeCtx(ctx, l.Q)
				if err != nil {
					latency[i] = float64(time.Since(t0).Microseconds()) / 1000.0
					errs.Add(1)
					continue
				}
				res, err := ex.RunCtx(ctx, l.Q, p)
				latency[i] = float64(time.Since(t0).Microseconds()) / 1000.0
				if err != nil {
					errs.Add(1)
					continue
				}
				if i < len(qs) {
					work[i] = res.Stats.WorkUnits
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	r := &ConcurrentResult{
		Goroutines:  g,
		ExecWorkers: opts.ExecWorkers,
		N:           total,
		Wall:        wall,
		QPS:         float64(total) / wall.Seconds(),
		LatencyMs:   metrics.Summarize(latency),
		WorkUnits:   work,
		Errors:      int(errs.Load()),
	}
	return r, nil
}

// WorkUnitsEqual reports whether two runs charged identical per-query
// work — the determinism contract: concurrency changes wall-clock, never
// the measured cost labels.
func WorkUnitsEqual(a, b *ConcurrentResult) bool {
	if len(a.WorkUnits) != len(b.WorkUnits) {
		return false
	}
	for i := range a.WorkUnits {
		if a.WorkUnits[i] != b.WorkUnits[i] {
			return false
		}
	}
	return true
}

// checkConcurrentRun is E9's per-row contract: res charged exactly the
// per-query WorkUnits of base, the first run, and no query failed.
func checkConcurrentRun(base, res *ConcurrentResult) error {
	if !WorkUnitsEqual(base, res) {
		return fmt.Errorf("goroutines=%d exec-workers=%d: per-query WorkUnits diverged from the first run", res.Goroutines, res.ExecWorkers)
	}
	if res.Errors > 0 {
		return fmt.Errorf("goroutines=%d exec-workers=%d: %d of %d queries failed", res.Goroutines, res.ExecWorkers, res.Errors, res.N)
	}
	return nil
}

// E9Throughput measures concurrent throughput scaling: the test workload
// driven serially and at 8 goroutines, 3 passes each, with serial
// operators and the default batch size, reporting QPS, wall-clock latency
// quantiles and speedup over the serial run. It fails if any run's
// per-query WorkUnits differ from the first run's or any query errors
// (checkConcurrentRun), so every reported row reads identical.
func E9Throughput(ctx context.Context, env *Env) (*Report, error) {
	const repeat = 3
	r := &Report{
		ID:     "E9",
		Title:  fmt.Sprintf("Concurrent throughput, dataset=%s (N=%d×%d, serial operators, default batch)", env.Name, len(env.Test), repeat),
		Header: []string{"goroutines", "qps", "speedup", "lat p50 ms", "lat p95 ms", "lat p99 ms", "workunits", "errors"},
	}
	var base *ConcurrentResult
	for _, g := range []int{1, 8} {
		res, err := RunConcurrent(ctx, env, ConcurrentOptions{Goroutines: g, Repeat: repeat})
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = res
		}
		if err := checkConcurrentRun(base, res); err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", g), F(res.QPS), F(res.QPS/base.QPS),
			F(res.LatencyMs.P50), F(res.LatencyMs.P95), F(res.LatencyMs.P99),
			"identical", fmt.Sprintf("%d", res.Errors))
	}
	r.Notes = append(r.Notes,
		"per-query WorkUnits are the deterministic latency proxy: they must not change with concurrency",
		"latency includes optimization + execution; wall-clock and machine-dependent",
		fmt.Sprintf("GOMAXPROCS=%d: speedup is bounded by available cores", runtime.GOMAXPROCS(0)),
	)
	return r, nil
}
