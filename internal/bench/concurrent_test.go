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
	rep, err := E9Throughput(context.Background(), env, []int{1, 4}, 0, 1, 0)
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
