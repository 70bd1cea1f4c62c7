package bench

import (
	"context"
	"testing"
	"time"
)

// TestRunLoadHitRateAndCorrectness is the serving-layer acceptance check:
// a repeated mix served in open loop hits the plan cache on (nearly)
// every request after warmup, and every served result matches the
// uncached baseline execution of the same query.
func TestRunLoadHitRateAndCorrectness(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 31)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(context.Background(), env, 400, LoadOptions{
		Duration: 300 * time.Millisecond,
		Distinct: 4,
		Tenants:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.N < 1 {
		t.Fatalf("N = %d", res.N)
	}
	if res.Errors != 0 {
		t.Fatalf("%d serving errors", res.Errors)
	}
	if !res.Identical {
		t.Fatal("served results diverged from uncached baselines")
	}
	if res.HitRate < 0.9 {
		t.Fatalf("hit rate %.2f below 0.9 on a repeated mix", res.HitRate)
	}
	if res.AchievedQPS <= 0 || res.LatencyMs.N != res.N {
		t.Fatalf("result = %+v", res)
	}
	if res.ColdPlanMs.N == 0 || res.HitPlanMs.N == 0 {
		t.Fatal("planning-time split not sampled")
	}
}

func TestE14SustainedLoadReport(t *testing.T) {
	env, err := NewEnv("stats", tinyScale(), 37)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e14SustainedLoad(context.Background(), env, LoadOptions{
		QPSLevels: []float64{200, 600},
		Duration:  200 * time.Millisecond,
		Distinct:  4,
		Tenants:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[10] != "identical" {
			t.Errorf("results column = %q, want identical", row[10])
		}
		if row[11] != "0" {
			t.Errorf("errors column = %q, want 0", row[11])
		}
	}
}

func TestCheckLoadRun(t *testing.T) {
	for _, c := range []struct {
		name string
		res  *LoadResult
		ok   bool
	}{
		{"identical", &LoadResult{TargetQPS: 200, N: 10, Identical: true}, true},
		{"admission rejections", &LoadResult{TargetQPS: 200, N: 10, Errors: 3, Identical: true}, true},
		{"diverged", &LoadResult{TargetQPS: 200, N: 10, Identical: false}, false},
	} {
		if err := checkLoadRun(c.res); (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
