package bench

import (
	"context"
	"testing"
)

// TestRunConcurrentDeterministicWorkUnits is the harness-level contract:
// driving the workload at different inter- and intra-query parallelism
// degrees must leave every per-query WorkUnits label unchanged.
func TestRunConcurrentDeterministicWorkUnits(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 17)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunConcurrent(context.Background(), env, ConcurrentOptions{Goroutines: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.N != len(env.Test) || serial.QPS <= 0 {
		t.Fatalf("serial run: N=%d QPS=%v", serial.N, serial.QPS)
	}
	if serial.Errors != 0 {
		t.Fatalf("serial run reported %d errors", serial.Errors)
	}
	for _, opts := range []ConcurrentOptions{
		{Goroutines: 4},
		{Goroutines: 8, ExecWorkers: 2},
		{Goroutines: 2, Repeat: 2},
		{Goroutines: 4, BatchSize: 1},
		{Goroutines: 4, ExecWorkers: 2, BatchSize: 64},
	} {
		res, err := RunConcurrent(context.Background(), env, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !WorkUnitsEqual(serial, res) {
			t.Errorf("G=%d W=%d: per-query WorkUnits diverged from serial run", opts.Goroutines, opts.ExecWorkers)
		}
		if res.Errors != serial.Errors {
			t.Errorf("G=%d: errors=%d, serial %d", opts.Goroutines, res.Errors, serial.Errors)
		}
		if res.LatencyMs.N != res.N {
			t.Errorf("G=%d: latency sample N=%d, want %d", opts.Goroutines, res.LatencyMs.N, res.N)
		}
	}
}

func TestRunConcurrentEmptyWorkload(t *testing.T) {
	env := &Env{}
	if _, err := RunConcurrent(context.Background(), env, ConcurrentOptions{Goroutines: 2}); err == nil {
		t.Fatal("empty workload accepted")
	}
}

func TestE9ThroughputReport(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 23)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := E9Throughput(context.Background(), env)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows=%d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[6] != "identical" {
			t.Errorf("work units column = %q, want identical", row[6])
		}
	}
}

// TestCheckConcurrentRun pins E9's row contract on hand-built runs: equal
// per-query WorkUnits and no failed query pass; a changed label, a
// different query count or any error fails.
func TestCheckConcurrentRun(t *testing.T) {
	base := &ConcurrentResult{Goroutines: 1, N: 3, WorkUnits: []float64{1.5, 2, 3}}
	run := func(wu []float64, errs int) *ConcurrentResult {
		return &ConcurrentResult{Goroutines: 4, ExecWorkers: 2, N: 3, WorkUnits: wu, Errors: errs}
	}
	for _, c := range []struct {
		name string
		res  *ConcurrentResult
		ok   bool
	}{
		{"base itself", base, true},
		{"identical", run([]float64{1.5, 2, 3}, 0), true},
		{"diverged label", run([]float64{1.5, 2.0000001, 3}, 0), false},
		{"fewer queries", run([]float64{1.5, 2}, 0), false},
		{"failed query", run([]float64{1.5, 2, 3}, 1), false},
	} {
		if err := checkConcurrentRun(base, c.res); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
