package learnedopt

import (
	"context"
	"errors"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/costmodel"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

type fixture struct {
	cat  *data.Catalog
	ex   *exec.Executor
	lc   *Context
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
		lc:   &Context{Cat: cat, Stats: cs, Ex: ex, Base: base, Workload: qs[:30], Seed: 19},
		test: qs[30:],
	}
	return shared
}

// optimizers lists this package's end-to-end optimizers and the native
// baseline they are measured against.
var optimizers = []struct {
	name string
	make func() Optimizer
}{
	{"native", func() Optimizer { return NewNative() }},
	{"bao", func() Optimizer { return NewBao() }},
	{"lero", func() Optimizer { return NewLero() }},
	{"neo", func() Optimizer { return NewNeo() }},
	{"loger", func() Optimizer { return NewLOGER() }},
	{"leon", func() Optimizer { return NewLEON() }},
	{"hyperqo", func() Optimizer { return NewHyperQO() }},
}

// TestRegistry: every optimizer names itself as listed.
func TestRegistry(t *testing.T) {
	for _, o := range optimizers {
		if got := o.make().Name(); got != o.name {
			t.Fatalf("%s name mismatch: %s", o.name, got)
		}
	}
}

// TestAllOptimizersCorrectResults: every end-to-end optimizer's plans must
// return exactly the native result, and a trained optimizer must refuse
// to plan under a cancelled context.
func TestAllOptimizersCorrectResults(t *testing.T) {
	f := getFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range optimizers {
		t.Run(row.name, func(t *testing.T) {
			o := row.make()
			if err := o.Train(context.Background(), f.lc); err != nil {
				t.Fatal(err)
			}
			if _, err := o.Plan(cancelled, f.test[0]); !errors.Is(err, context.Canceled) {
				t.Fatalf("plan under a cancelled ctx: %v, want context.Canceled", err)
			}
			for _, q := range f.test[:5] {
				p, err := o.Plan(context.Background(), q)
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
		p, err := o.Plan(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		lat, err := Measure(context.Background(), f.ex, q, p)
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
	if err := native.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	bao := NewBao()
	if err := bao.Train(context.Background(), f.lc); err != nil {
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
	if err := bao.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	cands, err := bao.Candidates(context.Background(), f.test[0])
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
	if err := bao.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	p, err := bao.Plan(context.Background(), f.test[0])
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
	for _, q := range append(f.lc.Workload, f.test...) {
		if len(q.Refs) < 3 {
			continue
		}
		p1, err := f.lc.Base.WithEstimator(&ScaledEstimator{Base: f.lc.Base.Est, Factor: 0.05}).OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := f.lc.Base.WithEstimator(&ScaledEstimator{Base: f.lc.Base.Est, Factor: 20}).OptimizeCtx(context.Background(), q)
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
	if err := lero.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	// On training data, comparator should order plan pairs correctly more
	// often than chance.
	correct, total := 0, 0
	for _, q := range f.lc.Workload[:10] {
		cands, err := lero.explore(context.Background(), q)
		if err != nil || len(cands) < 2 {
			continue
		}
		var plans []*plan.Node
		for _, c := range cands {
			plans = append(plans, c.Plan)
		}
		var lats []float64
		for _, p := range plans {
			lat, err := Measure(context.Background(), f.ex, q, p)
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
				pred := lero.cmp.Score(plans[i]) < lero.cmp.Score(plans[j])
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
	badCtx := *f.lc
	badCtx.Workload = f.lc.Workload[:3]
	if err := bad.Train(context.Background(), &badCtx); err != nil {
		t.Fatal(err)
	}
	native := NewNative()
	if err := native.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	_, natLats := workloadLatency(t, f, native)
	_, badLats := workloadLatency(t, f, bad)

	// Eraser wraps the SAME under-trained model (it is a plugin and must
	// not retrain it), but validates on the full workload.
	eraser := NewEraser(bad)
	eraser.InnerTrained = true
	if err := eraser.Train(context.Background(), f.lc); err != nil {
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
	if err := bao.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	er := NewEraser(bao)
	er.lc = f.lc
	er.seenStructure = map[string]bool{} // trust nothing
	er.clusterErr = map[string][]float64{}
	p, err := er.Plan(context.Background(), f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	nat, _ := f.lc.Base.OptimizeCtx(context.Background(), f.test[0])
	if p.Fingerprint() != nat.Fingerprint() {
		t.Fatal("eraser should fall back to the native plan")
	}
}

func TestHyperQOFiltersHighVariance(t *testing.T) {
	f := getFixture(t)
	h := NewHyperQO()
	if err := h.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Plan(context.Background(), f.test[0]); err != nil {
		t.Fatal(err)
	}
	// Two members that agree on the native plan (1e3) but disagree on
	// every other candidate (0 vs 100: log-space mean ≈ 2.3, cv ≈ 1). The
	// other candidates' mean beats native's ≈ 6.9, so only the variance
	// filter can bring the native plan back.
	q := f.test[0]
	nat, _ := f.lc.Base.OptimizeCtx(context.Background(), q)
	plans, err := f.lc.Base.CandidatePlans(context.Background(), q, plan.BaoHintSets())
	if err != nil {
		t.Fatal(err)
	}
	other := false
	for _, p := range plans {
		other = other || p.Fingerprint() != nat.Fingerprint()
	}
	if !other {
		t.Fatal("fixture query needs a candidate other than the native plan")
	}
	h.models = []costmodel.Model{
		nativeAgreed{native: nat.Fingerprint(), other: 0},
		nativeAgreed{native: nat.Fingerprint(), other: 100},
	}
	p, err := h.Plan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fingerprint() != nat.Fingerprint() {
		t.Fatal("HyperQO picked a candidate its ensemble disagrees on")
	}
}

// nativeAgreed is a cost model predicting 1e3 for the plan whose
// fingerprint is native and other for every other plan.
type nativeAgreed struct {
	native string
	other  float64
}

func (m nativeAgreed) Name() string                   { return "native-agreed" }
func (m nativeAgreed) Train(*costmodel.Context) error { return nil }
func (m nativeAgreed) Predict(_ *query.Query, p *plan.Node) float64 {
	if p.Fingerprint() == m.native {
		return 1e3
	}
	return m.other
}

func TestPointwiseLero(t *testing.T) {
	f := getFixture(t)
	l := NewPointwiseLero()
	if err := l.Train(context.Background(), f.lc); err != nil {
		t.Fatal(err)
	}
	p, err := l.Plan(context.Background(), f.test[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ex.RunCtx(context.Background(), f.test[0], p); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizersRequireWorkload(t *testing.T) {
	f := getFixture(t)
	empty := *f.lc
	empty.Workload = nil
	for _, o := range []Optimizer{NewBao(), NewLero(), NewNeo(), NewLEON(), NewHyperQO()} {
		if err := o.Train(context.Background(), &empty); err == nil {
			t.Errorf("%s should require a workload", o.Name())
		}
	}
}

// TestSteeringTrainHonorsCancellation: the steering core trains under the
// caller's context, so a cancelled one stops every configuration before
// it executes a candidate.
func TestSteeringTrainHonorsCancellation(t *testing.T) {
	f := getFixture(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	explore := NewBao()
	explore.Explore = true
	for _, s := range []*Steering{NewBao(), explore, NewLero(), NewLEON()} {
		if err := s.Train(cancelled, f.lc); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: train under a cancelled ctx: %v, want context.Canceled", s.Name(), err)
		}
	}
}

func TestMeasureMatchesExecutor(t *testing.T) {
	f := getFixture(t)
	q := f.test[0]
	p, _ := exec.CanonicalPlan(q)
	lat, err := Measure(context.Background(), f.ex, q, p)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := f.ex.RunCtx(context.Background(), q, p.Clone())
	if lat != res.Stats.WorkUnits {
		t.Fatalf("Measure %v != executor %v", lat, res.Stats.WorkUnits)
	}
}
