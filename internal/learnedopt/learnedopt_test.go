package learnedopt

import (
	"context"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
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
	cat := datagen.StatsCEB(datagen.Config{Seed: 19, Scale: 0.04})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 19})
	ex := exec.New(cat)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 19}); err != nil {
		t.Fatal(err)
	}
	base := opt.New(cat, cost.New(cs), hist)
	qs := workload.GenWorkload(cat, workload.Options{Seed: 19, Count: 45, MinJoins: 1, MaxJoins: 3, MaxPreds: 3})
	shared = &fixture{
		cat: cat, ex: ex,
		ctx:  &Context{Cat: cat, Stats: cs, Ex: ex, Base: base, Workload: qs[:30], Seed: 19},
		test: qs[30:],
	}
	return shared
}

func TestRegistry(t *testing.T) {
	if len(Registry()) < 6 {
		t.Fatalf("registry = %d", len(Registry()))
	}
	if _, err := ByName("bao"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("zzz"); err == nil {
		t.Fatal("unknown accepted")
	}
}

// TestAllOptimizersCorrectResults: every end-to-end optimizer's plans must
// return exactly the native result.
func TestAllOptimizersCorrectResults(t *testing.T) {
	f := getFixture(t)
	for _, inf := range Registry() {
		inf := inf
		t.Run(inf.Name, func(t *testing.T) {
			o := inf.Make()
			if err := o.Train(f.ctx); err != nil {
				t.Fatal(err)
			}
			for _, q := range f.test[:5] {
				p, err := o.Plan(q)
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				got, err := f.ex.RunCtx(context.Background(), q, p)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				canonical, _ := exec.CanonicalPlan(q)
				want, _ := f.ex.RunCtx(context.Background(), q, canonical)
				if got.Count != want.Count {
					t.Fatalf("wrong result %d vs %d", got.Count, want.Count)
				}
			}
		})
	}
}

// workloadLatency executes the test workload under an optimizer.
func workloadLatency(t *testing.T, f *fixture, o Optimizer) (total float64, perQuery []float64) {
	t.Helper()
	for _, q := range f.test {
		p, err := o.Plan(q)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		lat, err := Measure(f.ex, q, p)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		total += lat
		perQuery = append(perQuery, lat)
	}
	return total, perQuery
}

func TestBaoNotMuchWorseThanNative(t *testing.T) {
	f := getFixture(t)
	native := NewNative()
	if err := native.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	bao := NewBao()
	if err := bao.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	nTotal, _ := workloadLatency(t, f, native)
	bTotal, _ := workloadLatency(t, f, bao)
	// Bao picks among hint-steered plans which include the native plan;
	// with a trained value model total latency should be comparable or
	// better.
	if bTotal > nTotal*1.3 {
		t.Fatalf("bao total %v vs native %v", bTotal, nTotal)
	}
}

func TestBaoCandidatesSortedAndNonEmpty(t *testing.T) {
	f := getFixture(t)
	bao := NewBao()
	if err := bao.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	cands, err := bao.Candidates(f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].Predicted < cands[i-1].Predicted {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestBaoExploreMode(t *testing.T) {
	f := getFixture(t)
	bao := NewBao()
	bao.Explore = true
	bao.Rounds = 2
	if err := bao.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	p, err := bao.Plan(f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil plan")
	}
}

func TestLeroScaledEstimatorChangesPlans(t *testing.T) {
	f := getFixture(t)
	// Find a multi-join query where scaling changes the chosen plan.
	changed := false
	for _, q := range append(f.ctx.Workload, f.test...) {
		if len(q.Refs) < 3 {
			continue
		}
		p1, err := f.ctx.Base.WithEstimator(&ScaledEstimator{Base: f.ctx.Base.Est, Factor: 0.05}).OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := f.ctx.Base.WithEstimator(&ScaledEstimator{Base: f.ctx.Base.Est, Factor: 20}).OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if p1.Fingerprint() != p2.Fingerprint() {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("cardinality scaling never changed any plan — knob inert")
	}
}

func TestLeroPairwiseAgreesWithLatencyOrder(t *testing.T) {
	f := getFixture(t)
	lero := NewLero()
	if err := lero.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	// On training data, comparator should order plan pairs correctly more
	// often than chance.
	correct, total := 0, 0
	for _, q := range f.ctx.Workload[:10] {
		plans, err := lero.candidatePlans(q)
		if err != nil || len(plans) < 2 {
			continue
		}
		var lats []float64
		for _, p := range plans {
			lat, err := Measure(f.ex, q, p)
			if err != nil {
				t.Fatal(err)
			}
			lats = append(lats, lat)
		}
		for i := range plans {
			for j := i + 1; j < len(plans); j++ {
				if lats[i] == lats[j] {
					continue
				}
				total++
				pred := lero.Comparator.Better(plans[i], plans[j])
				truth := lats[i] < lats[j]
				if pred == truth {
					correct++
				}
			}
		}
	}
	if total == 0 {
		t.Skip("no distinguishable pairs")
	}
	acc := float64(correct) / float64(total)
	if acc < 0.55 {
		t.Fatalf("pairwise accuracy %v (%d/%d)", acc, correct, total)
	}
}

func TestEraserEliminatesRegressions(t *testing.T) {
	f := getFixture(t)
	// A deliberately under-trained Bao: value model trained on 3 queries.
	bad := NewBao()
	badCtx := *f.ctx
	badCtx.Workload = f.ctx.Workload[:3]
	if err := bad.Train(&badCtx); err != nil {
		t.Fatal(err)
	}
	native := NewNative()
	if err := native.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	_, natLats := workloadLatency(t, f, native)
	_, badLats := workloadLatency(t, f, bad)

	// Eraser wraps the SAME under-trained model (it is a plugin and must
	// not retrain it), but validates on the full workload.
	eraser := NewEraser(bad)
	eraser.InnerTrained = true
	if err := eraser.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	_, erLats := workloadLatency(t, f, eraser)

	regressions := func(lats []float64) int {
		n := 0
		for i := range lats {
			if lats[i] > natLats[i]*1.2 {
				n++
			}
		}
		return n
	}
	badReg, erReg := regressions(badLats), regressions(erLats)
	if erReg > badReg {
		t.Fatalf("eraser increased regressions: %d vs %d", erReg, badReg)
	}
}

func TestEraserFallsBackToNativeWhenNothingTrusted(t *testing.T) {
	f := getFixture(t)
	bao := NewBao()
	if err := bao.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	er := NewEraser(bao)
	er.ctx = f.ctx
	er.seenStructure = map[string]bool{} // trust nothing
	er.clusterErr = map[string][]float64{}
	p, err := er.Plan(f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := f.ctx.Base.OptimizeCtx(context.Background(), f.test[0])
	if p.Fingerprint() != nat.Fingerprint() {
		t.Fatal("eraser should fall back to the native plan")
	}
}

func TestPerfGuardNeverPicksWildPlans(t *testing.T) {
	f := getFixture(t)
	g := NewPerfGuard(NewBao())
	if err := g.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	for _, q := range f.test[:5] {
		p, err := g.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.ex.RunCtx(context.Background(), q, p); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHyperQOFiltersHighVariance(t *testing.T) {
	f := getFixture(t)
	h := NewHyperQO()
	h.K = 3
	if err := h.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	// With an impossible threshold, everything is filtered → native plan.
	h.VarThreshold = -1
	p, err := h.Plan(f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := f.ctx.Base.OptimizeCtx(context.Background(), f.test[0])
	if p.Fingerprint() != nat.Fingerprint() {
		t.Fatal("all-filtered HyperQO should return the native plan")
	}
	h.VarThreshold = math.Inf(1)
	if _, err := h.Plan(f.test[0]); err != nil {
		t.Fatal(err)
	}
}

func TestAutoSteerDiscoversArms(t *testing.T) {
	f := getFixture(t)
	a := NewAutoSteer()
	before := len(a.Bao.Arms)
	if err := a.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	if len(a.Bao.Arms) <= before {
		t.Fatalf("no arms discovered: %d → %d", before, len(a.Bao.Arms))
	}
	for _, h := range a.Bao.Arms {
		if !h.Valid() {
			t.Fatalf("invalid discovered arm %s", h)
		}
	}
	if _, err := a.Plan(f.test[0]); err != nil {
		t.Fatal(err)
	}
}

func TestPointwiseLero(t *testing.T) {
	f := getFixture(t)
	l := NewPointwiseLero()
	if err := l.Train(f.ctx); err != nil {
		t.Fatal(err)
	}
	p, err := l.Plan(f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ex.RunCtx(context.Background(), f.test[0], p); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizersRequireWorkload(t *testing.T) {
	f := getFixture(t)
	empty := *f.ctx
	empty.Workload = nil
	for _, name := range []string{"bao", "lero", "neo", "leon", "hyperqo"} {
		o, _ := ByName(name)
		if err := o.Train(&empty); err == nil {
			t.Errorf("%s should require a workload", name)
		}
	}
}

func TestMeasureMatchesExecutor(t *testing.T) {
	f := getFixture(t)
	q := f.test[0]
	p, _ := exec.CanonicalPlan(q)
	lat, err := Measure(f.ex, q, p)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := f.ex.RunCtx(context.Background(), q, p.Clone())
	if lat != res.Stats.WorkUnits {
		t.Fatalf("Measure %v != executor %v", lat, res.Stats.WorkUnits)
	}
}
