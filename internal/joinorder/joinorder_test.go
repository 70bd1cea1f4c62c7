package joinorder

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

type fixture struct {
	cat  *data.Catalog
	ex   *exec.Executor
	ctx  *Context
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
		ctx:  &Context{Cat: cat, Base: base, Workload: qs[:25], Episodes: 150, Seed: 13},
		test: qs[25:],
	}
	return shared
}

func TestRegistry(t *testing.T) {
	if len(Registry()) < 8 {
		t.Fatalf("registry = %d", len(Registry()))
	}
	for _, inf := range Registry() {
		s := inf.Make()
		if s.Name() != inf.Name {
			t.Fatalf("%s name mismatch", inf.Name)
		}
	}
	if _, err := ByName("dq"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown accepted")
	}
}

// TestAllSearchersProduceCorrectPlans: every method's plan must execute
// and return the same count as the canonical plan.
func TestAllSearchersProduceCorrectPlans(t *testing.T) {
	f := getFixture(t)
	for _, inf := range Registry() {
		inf := inf
		t.Run(inf.Name, func(t *testing.T) {
			s := inf.Make()
			if err := s.Train(f.ctx); err != nil {
				t.Fatal(err)
			}
			for _, q := range f.test[:5] {
				p, err := s.Plan(q)
				if err != nil {
					t.Fatalf("%s: %v", q.SQL(), err)
				}
				got, err := f.ex.RunCtx(context.Background(), q, p)
				if err != nil {
					t.Fatalf("%s plan failed: %v", inf.Name, err)
				}
				canonical, _ := exec.CanonicalPlan(q)
				want, err := f.ex.RunCtx(context.Background(), q, canonical)
				if err != nil {
					t.Fatal(err)
				}
				if got.Count != want.Count {
					t.Fatalf("%s wrong result: %d vs %d", inf.Name, got.Count, want.Count)
				}
			}
		})
	}
}

// costRatio evaluates a searcher's mean plan-cost ratio vs DP-optimal.
func costRatio(t *testing.T, f *fixture, s Searcher) float64 {
	t.Helper()
	dp := NewDP()
	if err := dp.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	var ratios []float64
	for _, q := range f.test {
		opt, err := dp.Plan(q)
		if err != nil {
			continue
		}
		p, err := s.Plan(q)
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
	random := NewRandom(0)
	if err := random.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	randRatio := costRatio(t, f, random)
	for _, name := range []string{"dq", "skinner-mcts", "eddy"} {
		s, _ := ByName(name)
		if err := s.Train(f.ctx); err != nil {
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
	s := NewMCTS(300)
	if err := s.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	r := costRatio(t, f, s)
	if r > 1.5 {
		t.Fatalf("MCTS geo cost ratio vs DP = %v", r)
	}
}

func TestDPIsOptimalAmongSearchers(t *testing.T) {
	f := getFixture(t)
	dp := NewDP()
	if err := dp.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	if r := costRatio(t, f, dp); math.Abs(r-1) > 1e-9 {
		t.Fatalf("DP self-ratio = %v", r)
	}
	greedy := NewGreedy()
	if err := greedy.Train(f.ctx); err != nil {
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
