package guard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

func nativeOptimizer(t *testing.T) *opt.Optimizer {
	t.Helper()
	cat := datagen.StatsCEB(datagen.Config{Seed: 3, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 3})
	return opt.New(cat, cost.New(cs), &fixedEstimator{card: 1000})
}

func guardQuery() *query.Query {
	return &query.Query{
		Refs: []query.TableRef{
			{Alias: "users", Table: "users"},
			{Alias: "posts", Table: "posts"},
		},
		Joins: []query.Join{
			{LeftAlias: "posts", LeftCol: "owner_user_id", RightAlias: "users", RightCol: "id"},
		},
		Preds: []query.Pred{
			{Alias: "users", Column: "reputation", Op: query.Gt, Val: data.IntVal(100)},
		},
	}
}

// fakeLearned is a scriptable learned optimizer for guard tests.
type fakeLearned struct {
	native *opt.Optimizer
	mode   string // "ok", "err", "panic", "hang", "nil"
	hang   time.Duration
}

func (f *fakeLearned) Name() string                        { return "fake(" + f.mode + ")" }
func (f *fakeLearned) Train(ctx *learnedopt.Context) error { return nil }
func (f *fakeLearned) Plan(q *query.Query) (*plan.Node, error) {
	switch f.mode {
	case "err":
		return nil, fmt.Errorf("fake: deliberate error")
	case "panic":
		panic("fake: deliberate panic")
	case "nil":
		return nil, nil
	case "hang":
		time.Sleep(f.hang)
	}
	return f.native.OptimizeCtx(context.Background(), q)
}

func TestPlannerLearnedPathServes(t *testing.T) {
	native := nativeOptimizer(t)
	g := NewPlanner(&fakeLearned{native: native, mode: "ok"}, native, 0)
	p, learned, err := g.Plan(context.Background(), guardQuery())
	if err != nil || p == nil {
		t.Fatalf("Plan: p=%v err=%v", p, err)
	}
	if !learned {
		t.Fatal("healthy learned component was not used")
	}
	s := g.Stats()
	if s.Served != 1 || s.Learned != 1 || s.Fallbacks != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPlannerFallsBackOnFailureModes(t *testing.T) {
	for _, mode := range []string{"err", "panic", "nil"} {
		t.Run(mode, func(t *testing.T) {
			native := nativeOptimizer(t)
			g := NewPlanner(&fakeLearned{native: native, mode: mode}, native, 0)
			p, learned, err := g.Plan(context.Background(), guardQuery())
			if err != nil {
				t.Fatalf("learned failure surfaced as query error: %v", err)
			}
			if p == nil {
				t.Fatal("no plan despite native fallback")
			}
			if learned {
				t.Fatal("failed learned component reported as serving")
			}
			s := g.Stats()
			if s.Fallbacks != 1 {
				t.Fatalf("fallbacks = %d, want 1", s.Fallbacks)
			}
			if mode == "panic" && s.Panics != 1 {
				t.Fatalf("panics = %d, want 1", s.Panics)
			}
			if mode != "panic" && s.Errors != 1 {
				t.Fatalf("errors = %d, want 1 (stats %+v)", s.Errors, s)
			}
		})
	}
}

func TestPlannerTimeoutFallsBack(t *testing.T) {
	native := nativeOptimizer(t)
	g := NewPlanner(&fakeLearned{native: native, mode: "hang", hang: 200 * time.Millisecond}, native, 5*time.Millisecond)
	start := time.Now()
	p, learned, err := g.Plan(context.Background(), guardQuery())
	if err != nil || p == nil || learned {
		t.Fatalf("Plan: p=%v learned=%v err=%v", p, learned, err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("timeout did not cut the hang short (%v)", elapsed)
	}
	if s := g.Stats(); s.Timeouts != 1 || s.Fallbacks != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPlannerCtxDeadlineSurfaces(t *testing.T) {
	native := nativeOptimizer(t)
	g := NewPlanner(&fakeLearned{native: native, mode: "hang", hang: 200 * time.Millisecond}, native, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := g.Plan(ctx, guardQuery())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := g.Plan(pre, guardQuery()); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled err = %v, want context.Canceled", err)
	}
}

func TestPlannerBreakerTripsAndSkips(t *testing.T) {
	native := nativeOptimizer(t)
	g := NewPlanner(&fakeLearned{native: native, mode: "panic"}, native, 0)
	g.Breaker = NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 100})
	q := guardQuery()
	for i := 0; i < 10; i++ {
		if _, _, err := g.Plan(context.Background(), q); err != nil {
			t.Fatalf("query %d errored: %v", i, err)
		}
	}
	if g.Breaker.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", g.Breaker.Trips())
	}
	s := g.Stats()
	if s.BreakerSkips == 0 {
		t.Fatal("open breaker never skipped the learned component")
	}
	if s.Panics != 3 {
		t.Fatalf("panics = %d, want 3 (breaker should stop consultation)", s.Panics)
	}
	if s.Fallbacks != 10 {
		t.Fatalf("fallbacks = %d, want 10 — every query must be served", s.Fallbacks)
	}
}

func TestPlannerChaosFullAvailability(t *testing.T) {
	native := nativeOptimizer(t)
	chaos := &ChaosPlanner{
		Base: &fakeLearned{native: native, mode: "ok"},
		In:   NewInjector(ChaosConfig{Rate: 0.5, Seed: 11, Hang: 20 * time.Millisecond}),
	}
	g := NewPlanner(chaos, native, 5*time.Millisecond)
	q := guardQuery()
	for i := 0; i < 40; i++ {
		p, _, err := g.Plan(context.Background(), q)
		if err != nil || p == nil {
			t.Fatalf("query %d not served: p=%v err=%v", i, p, err)
		}
	}
	if s := g.Stats(); s.Served != 40 || s.Learned+s.Fallbacks != 40 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPlannerTimeoutsLeakNoGoroutines(t *testing.T) {
	native := nativeOptimizer(t)
	g := NewPlanner(&fakeLearned{native: native, mode: "hang", hang: 30 * time.Millisecond}, native, time.Millisecond)
	g.Breaker = nil // consult (and abandon) the learned path every query
	q := guardQuery()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, _, err := g.Plan(context.Background(), q); err != nil {
			t.Fatalf("query %d errored: %v", i, err)
		}
	}
	// Hangs are finite, so every abandoned watchdog goroutine terminates.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestSafeEstimateFallsBack(t *testing.T) {
	v := SafeEstimate("est", 7, func() float64 { panic("boom") })
	if v != 7 {
		t.Fatalf("SafeEstimate = %v, want fallback 7", v)
	}
	if v := SafeEstimate("est", 7, func() float64 { return 3 }); v != 3 {
		t.Fatalf("SafeEstimate = %v, want 3", v)
	}
}

func TestSafeConvertsPanic(t *testing.T) {
	err := Safe("comp", func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Component != "comp" || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if err := Safe("comp", func() error { return nil }); err != nil {
		t.Fatalf("clean fn errored: %v", err)
	}
}
