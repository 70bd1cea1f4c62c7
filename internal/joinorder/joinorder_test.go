package joinorder

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

type fixture struct {
	cat  *data.Catalog
	ex   *exec.Executor
	lc   *learnedopt.Context
	test []*query.Query
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 13, Scale: 0.04})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 13})
	ex := exec.New(cat)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 13}); err != nil {
		t.Fatal(err)
	}
	base := opt.New(cat, cost.New(cs), hist)
	qs := workload.GenWorkload(cat, workload.Options{Seed: 13, Count: 40, MinJoins: 2, MaxJoins: 4, MaxPreds: 3})
	shared = &fixture{
		cat: cat, ex: ex,
		lc:   &learnedopt.Context{Cat: cat, Base: base, Workload: qs[:25], Seed: 13},
		test: qs[25:],
	}
	return shared
}

// searchers lists this package's join-order methods and the exhaustive-DP
// baseline they are measured against ("dp", the native optimizer).
var searchers = []struct {
	name string
	make func() learnedopt.Optimizer
}{
	{"dp", func() learnedopt.Optimizer { return learnedopt.NewNative() }},
	{"greedy", func() learnedopt.Optimizer { return NewGreedy() }},
	{"random", func() learnedopt.Optimizer { return NewRandom() }},
	{"dq", func() learnedopt.Optimizer { return NewDQ() }},
	{"rejoin", func() learnedopt.Optimizer { return NewReJoin() }},
	{"rtos", func() learnedopt.Optimizer { return NewRTOS() }},
	{"skinner-mcts", func() learnedopt.Optimizer { return NewMCTS() }},
	{"eddy", func() learnedopt.Optimizer { return NewEddy() }},
}

// TestRegistry: every searcher names itself as listed.
func TestRegistry(t *testing.T) {
	for _, s := range searchers {
		want := s.name
		if want == "dp" {
			want = "native" // the dp row is the native optimizer
		}
		if got := s.make().Name(); got != want {
			t.Fatalf("%s name mismatch: %s", s.name, got)
		}
	}
}

// TestAllSearchersProduceCorrectPlans: every method's plan must execute
// and return the same count as the canonical plan, and a trained method
// must refuse to plan under a cancelled context.
func TestAllSearchersProduceCorrectPlans(t *testing.T) {
	f := getFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range searchers {
		t.Run(row.name, func(t *testing.T) {
			s := row.make()
			if err := s.Train(context.Background(), f.lc); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Plan(cancelled, f.test[0]); !errors.Is(err, context.Canceled) {
				t.Fatalf("plan under a cancelled ctx: %v, want context.Canceled", err)
			}
			for _, q := range f.test[:5] {
				p, err := s.Plan(context.Background(), q)
				if err != nil {
					t.Fatalf("%s: %v", q.SQL(), err)
				}
				got, err := f.ex.RunCtx(context.Background(), q, p)
				if err != nil {
					t.Fatalf("%s plan failed: %v", row.name, err)
				}
				canonical, _ := exec.CanonicalPlan(q)
				want, err := f.ex.RunCtx(context.Background(), q, canonical)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count {
					t.Fatalf("%s wrong result: %d vs %d", row.name, got.Count, want.Count)
				}
			}
		})
	}
}

// costRatio evaluates a searcher's mean plan-cost ratio vs DP-optimal.
func costRatio(t *testing.T, f *fixture, s learnedopt.Optimizer) float64 {
	t.Helper()
	dp := learnedopt.NewNative()
	if err := dp.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for _, q := range f.test {
		opt, err := dp.Plan(context.Background(), q)
		if err != nil {
			continue
		}
		p, err := s.Plan(context.Background(), q)
		if err != nil {
			continue
		}
		if opt.EstCost <= 0 {
			continue
		}
		ratios = append(ratios, p.EstCost/opt.EstCost)
	}
	if len(ratios) == 0 {
		t.Fatal("no ratios")
	}
	return metrics.GeoMean(ratios)
}

func TestLearnedSearchersBeatRandom(t *testing.T) {
	f := getFixture(t)
	random := NewRandom()
	if err := random.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	randRatio := costRatio(t, f, random)
	for _, s := range []learnedopt.Optimizer{NewDQ(), NewMCTS(), NewEddy()} {
		name := s.Name()
		if err := s.Train(context.Background(), f.lc); err != nil {
			t.Fatal(err)
		}
		r := costRatio(t, f, s)
		if r > randRatio*1.05 {
			t.Errorf("%s ratio %v worse than random %v", name, r, randRatio)
		}
		if r < 1-1e-9 {
			t.Errorf("%s ratio %v below DP optimum — cost accounting broken", name, r)
		}
	}
}

func TestMCTSApproachesDP(t *testing.T) {
	f := getFixture(t)
	s := NewMCTS()
	if err := s.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	r := costRatio(t, f, s)
	if r > 1.5 {
		t.Fatalf("MCTS geo cost ratio vs DP = %v", r)
	}
}

func TestDPIsOptimalAmongSearchers(t *testing.T) {
	f := getFixture(t)
	dp := learnedopt.NewNative()
	if err := dp.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	if r := costRatio(t, f, dp); math.Abs(r-1) > 1e-9 {
		t.Fatalf("DP self-ratio = %v", r)
	}
	greedy := NewGreedy()
	if err := greedy.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	if r := costRatio(t, f, greedy); r < 1-1e-9 {
		t.Fatalf("greedy beat DP: %v", r)
	}
}

func TestRandomConnectedOrderKeepsPrefixConnected(t *testing.T) {
	f := getFixture(t)
	rng := rand.New(rand.NewSource(99))
	for _, q := range f.test {
		if len(q.Refs) < 3 {
			continue
		}
		order := randomConnectedOrder(q, rng)
		if len(order) != len(q.Refs) {
			t.Fatalf("order size %d", len(order))
		}
		g := query.NewJoinGraph(q)
		joined := map[string]bool{order[0]: true}
		for _, a := range order[1:] {
			if !g.ConnectsTo(a, joined) {
				t.Fatalf("disconnected prefix in %v for %s", order, q.SQL())
			}
			joined[a] = true
		}
	}
}
