package costmodel

import (
	"context"
	"math"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

type world struct {
	cat   *data.Catalog
	cs    *stats.CatalogStats
	ctx   *Context
	test  []TrainPlan
	base  *opt.Optimizer
	ex    *exec.Executor
	cache *exec.CardCache
}

var shared *world

// buildWorld executes hint-steered plans over a small StatsCEB catalog to
// produce (plan, latency) pairs split into train/test.
func buildWorld(t *testing.T) *world {
	t.Helper()
	if shared != nil {
		return shared
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 9, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 9})
	ex := exec.New(cat)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	base := opt.New(cat, cost.New(cs), hist)
	qs := workload.GenWorkload(cat, workload.Options{Seed: 9, Count: 40, MaxJoins: 3, MaxPreds: 3})
	var all []TrainPlan
	for _, q := range qs {
		plans, err := base.CandidatePlans(context.Background(), q, plan.BaoHintSets())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range plans {
			res, _, err := ex.RunAnalyze(context.Background(), q, p) // multitask trains on TrueCard
			if err != nil {
				continue
			}
			all = append(all, TrainPlan{Q: q, Plan: p, Latency: res.Stats.WorkUnits})
		}
	}
	if len(all) < 40 {
		t.Fatalf("only %d executed plans", len(all))
	}
	split := len(all) * 3 / 4
	shared = &world{
		cat: cat, cs: cs, base: base, ex: ex,
		cache: exec.NewCardCache(ex),
		ctx:   &Context{Cat: cat, Stats: cs, Plans: all[:split], Seed: 11},
		test:  all[split:],
	}
	return shared
}

func TestRegistryAndByName(t *testing.T) {
	if len(Registry()) < 6 {
		t.Fatalf("registry = %d models", len(Registry()))
	}
	for _, inf := range Registry() {
		m := inf.Make()
		if m.Name() != inf.Name {
			t.Fatalf("%s name mismatch", inf.Name)
		}
	}
}

func TestAllModelsTrainAndPredict(t *testing.T) {
	w := buildWorld(t)
	for _, inf := range Registry() {
		inf := inf
		t.Run(inf.Name, func(t *testing.T) {
			m := inf.Make()
			if err := m.Train(w.ctx); err != nil {
				t.Fatal(err)
			}
			for _, tp := range w.test {
				v := m.Predict(tp.Q, tp.Plan)
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("prediction %v", v)
				}
			}
		})
	}
}

func TestLearnedModelsBeatTraditionalCorrelation(t *testing.T) {
	w := buildWorld(t)
	rho := func(m Model) float64 {
		if err := m.Train(w.ctx); err != nil {
			t.Fatal(err)
		}
		var pred, truth []float64
		for _, tp := range w.test {
			pred = append(pred, m.Predict(tp.Q, tp.Plan))
			truth = append(truth, tp.Latency)
		}
		return metrics.SpearmanRho(pred, truth)
	}
	trad := rho(NewTraditional())
	gbdt := rho(NewGBDTCost(false))
	if gbdt < 0.5 {
		t.Fatalf("gbdt-cost rank correlation too weak: %v", gbdt)
	}
	// The learned model should correlate at least as well as the
	// mis-calibrated traditional model on held-out plans (small slack for
	// sampling noise).
	if gbdt < trad-0.15 {
		t.Fatalf("gbdt %v much worse than traditional %v", gbdt, trad)
	}
}

func TestCalibratedImprovesScale(t *testing.T) {
	w := buildWorld(t)
	trad := NewTraditional()
	cal := NewCalibrated()
	if err := trad.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	if err := cal.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	// Calibration should reduce the geometric-mean absolute ratio error.
	ratioErr := func(m Model) float64 {
		var errs []float64
		for _, tp := range w.test {
			errs = append(errs, metrics.QError(m.Predict(tp.Q, tp.Plan), tp.Latency))
		}
		return metrics.GeoMean(errs)
	}
	te, ce := ratioErr(trad), ratioErr(cal)
	if ce > te*1.1 {
		t.Fatalf("calibration made scale worse: %v vs %v", ce, te)
	}
}

func TestZeroShotTransfers(t *testing.T) {
	w := buildWorld(t)
	zs := NewGBDTCost(true)
	if err := zs.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	// Build plans on a different database (JOBLite) and check predictions
	// are sane and rank-correlated.
	cat2 := datagen.JOBLite(datagen.Config{Seed: 21, Scale: 0.05})
	cs2 := stats.CollectCatalog(cat2, stats.Options{Seed: 21})
	ex2 := exec.New(cat2)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat2, Stats: cs2, Seed: 21}); err != nil {
		t.Fatal(err)
	}
	base2 := opt.New(cat2, cost.New(cs2), hist)
	qs := workload.GenWorkload(cat2, workload.Options{Seed: 21, Count: 15, MaxJoins: 2, MaxPreds: 2})
	var pred, truth []float64
	for _, q := range qs {
		p, err := base2.OptimizeCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex2.RunCtx(context.Background(), q, p)
		if err != nil {
			continue
		}
		pred = append(pred, zs.Predict(q, p))
		truth = append(truth, res.Stats.WorkUnits)
	}
	if rho := metrics.SpearmanRho(pred, truth); rho < 0.3 {
		t.Fatalf("zero-shot transfer correlation = %v", rho)
	}
}

// TestTreeConvEmbedding checks the root embedding Predict's head reads:
// embDim wide and free of NaN after training.
func TestTreeConvEmbedding(t *testing.T) {
	w := buildWorld(t)
	tc := NewTreeConv()
	tc.Epochs = 10
	if err := tc.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	emb, _ := tc.enc.forward(w.test[0].Plan)
	if len(emb) != embDim {
		t.Fatalf("embedding dim = %d", len(emb))
	}
	for _, v := range emb {
		if math.IsNaN(v) {
			t.Fatal("NaN in embedding")
		}
	}
}

func TestModelsRequirePlans(t *testing.T) {
	w := buildWorld(t)
	empty := &Context{Cat: w.cat, Stats: w.cs, Seed: 1}
	for _, m := range []Model{NewCalibrated(), NewGBDTCost(false), NewMLPCost(), NewTreeConv()} {
		if err := m.Train(empty); err == nil {
			t.Errorf("%s should require executed plans", m.Name())
		}
	}
}

func TestPlanFeaturizerShapes(t *testing.T) {
	w := buildWorld(t)
	for _, zs := range []bool{false, true} {
		f := NewPlanFeaturizer(w.cat, zs)
		for _, tp := range w.test {
			v := f.Vector(tp.Plan)
			if len(v) != f.Dim() {
				t.Fatalf("vector %d != dim %d", len(v), f.Dim())
			}
		}
	}
	nf := NodeFeatures(w.test[0].Plan)
	if len(nf) != NodeFeatureDim {
		t.Fatalf("node features = %d", len(nf))
	}
}

func TestMultiTaskBothHeads(t *testing.T) {
	w := buildWorld(t)
	m := NewMultiTask()
	if err := m.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	var latPred, latTruth, cardPred, cardTruth []float64
	for _, tp := range w.test {
		latPred = append(latPred, m.Predict(tp.Q, tp.Plan))
		latTruth = append(latTruth, tp.Latency)
		emb, _ := m.enc.forward(tp.Plan)
		cardPred = append(cardPred, m.cardHead.Forward(emb)[0]) // log1p(card): same ranks
		cardTruth = append(cardTruth, tp.Plan.TrueCard)
	}
	if rho := metrics.SpearmanRho(latPred, latTruth); rho < 0.4 {
		t.Fatalf("multitask latency rank correlation = %v", rho)
	}
	if rho := metrics.SpearmanRho(cardPred, cardTruth); rho < 0.4 {
		t.Fatalf("multitask cardinality rank correlation = %v", rho)
	}
}
