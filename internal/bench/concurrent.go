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
	"lqo/internal/workload"
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
	// Queries overrides the driven workload; nil means env.Test.
	Queries []workload.Labeled
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
	qs := opts.Queries
	if qs == nil {
		qs = env.Test
	}
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

// E9Throughput measures concurrent throughput scaling: the test workload
// driven at each goroutine count in gs, reporting QPS, wall-clock latency
// quantiles, speedup over the serial run, and whether the per-query
// WorkUnits stayed byte-identical (they must). batchSize sets the
// executors' tuples-per-batch (<=0 = exec.DefaultBatchSize); it trades
// memory against per-batch overhead and never changes results.
func E9Throughput(ctx context.Context, env *Env, gs []int, execWorkers, repeat, batchSize int) (*Report, error) {
	if repeat < 1 {
		repeat = 1
	}
	r := &Report{
		ID:     "E9",
		Title:  fmt.Sprintf("Concurrent throughput, dataset=%s (N=%d×%d, exec workers=%d, batch=%d)", env.Name, len(env.Test), repeat, execWorkers, batchSize),
		Header: []string{"goroutines", "qps", "speedup", "lat p50 ms", "lat p95 ms", "lat p99 ms", "workunits", "errors"},
	}
	var base *ConcurrentResult
	for _, g := range gs {
		res, err := RunConcurrent(ctx, env, ConcurrentOptions{Goroutines: g, ExecWorkers: execWorkers, Repeat: repeat, BatchSize: batchSize})
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = res
		}
		wuState := "identical"
		if !WorkUnitsEqual(base, res) {
			wuState = "DIVERGED"
		}
		r.AddRow(fmt.Sprintf("%d", g), F(res.QPS), F(res.QPS/base.QPS),
			F(res.LatencyMs.P50), F(res.LatencyMs.P95), F(res.LatencyMs.P99),
			wuState, fmt.Sprintf("%d", res.Errors))
	}
	r.Notes = append(r.Notes,
		"per-query WorkUnits are the deterministic latency proxy: they must not change with concurrency",
		"latency includes optimization + execution; wall-clock and machine-dependent",
		fmt.Sprintf("GOMAXPROCS=%d: speedup is bounded by available cores", runtime.GOMAXPROCS(0)),
	)
	return r, nil
}
