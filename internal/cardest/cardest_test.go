package cardest

import (
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/query"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

type world struct {
	cat   *data.Catalog
	cs    *stats.CatalogStats
	cache *exec.CardCache
	ctx   *Context
	test  []workload.Labeled
}

var sharedWorld *world

func getWorld(t *testing.T) *world {
	t.Helper()
	if sharedWorld != nil {
		return sharedWorld
	}
	cat := datagen.StatsCEB(datagen.Config{Seed: 5, Scale: 0.05})
	cs := stats.CollectCatalog(cat, stats.Options{Seed: 5})
	cache := exec.NewCardCache(exec.New(cat))
	labeled, err := workload.GenLabeled(cat, cache, workload.Options{Seed: 5, Count: 90, MaxJoins: 3, MaxPreds: 3})
	if err != nil {
		t.Fatal(err)
	}
	train := make([]Sample, 60)
	for i := 0; i < 60; i++ {
		train[i] = Sample{Q: labeled[i].Q, Card: labeled[i].Card}
	}
	sharedWorld = &world{
		cat: cat, cs: cs, cache: cache,
		ctx:  &Context{Cat: cat, Stats: cs, Train: train, Seed: 7},
		test: labeled[60:],
	}
	return sharedWorld
}

func maxCard(cat *data.Catalog, q *query.Query) float64 {
	m := 1.0
	for _, r := range q.Refs {
		m *= float64(cat.Table(r.Table).NumRows())
	}
	return m
}

func TestRegistryCompleteAndConstructible(t *testing.T) {
	reg := Registry()
	if len(reg) < 17 {
		t.Fatalf("registry has %d estimators", len(reg))
	}
	seen := map[string]bool{}
	classes := map[Class]int{}
	for _, inf := range reg {
		if seen[inf.Name] {
			t.Fatalf("duplicate name %s", inf.Name)
		}
		seen[inf.Name] = true
		e := inf.Make()
		if e.Name() != inf.Name {
			t.Fatalf("name mismatch: %s vs %s", e.Name(), inf.Name)
		}
		classes[inf.Class]++
	}
	for _, c := range []Class{Traditional, QueryDriven, DataDriven, Hybrid} {
		if classes[c] == 0 {
			t.Fatalf("class %s has no estimator", c)
		}
	}
	if _, err := ByName("mscn"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestAllEstimatorsTrainAndEstimate is the package's core integration
// property: every registered estimator trains on the shared world and
// produces finite, bounded estimates on held-out queries.
func TestAllEstimatorsTrainAndEstimate(t *testing.T) {
	w := getWorld(t)
	for _, inf := range Registry() {
		inf := inf
		t.Run(inf.Name, func(t *testing.T) {
			e := inf.Make()
			if err := e.Train(w.ctx); err != nil {
				t.Fatalf("train: %v", err)
			}
			for _, s := range w.test {
				est := e.Estimate(s.Q)
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("estimate %v for %s", est, s.Q.SQL())
				}
				if est > maxCard(w.cat, s.Q)+0.5 {
					t.Fatalf("estimate %v exceeds cross product for %s", est, s.Q.SQL())
				}
			}
		})
	}
}

func TestHistogramSingleTableAccuracy(t *testing.T) {
	w := getWorld(t)
	e := NewHistogramEstimator()
	if err := e.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	// Single-table range queries should have modest q-error.
	var qerrs []float64
	for _, s := range append(w.test, labeledFromSamples(w.ctx.Train)...) {
		if len(s.Q.Refs) != 1 {
			continue
		}
		qerrs = append(qerrs, metrics.QError(e.Estimate(s.Q), s.Card))
	}
	if len(qerrs) == 0 {
		t.Skip("no single-table queries generated")
	}
	med := metrics.Summarize(qerrs).P50
	if med > 3 {
		t.Fatalf("histogram single-table median q-error = %v", med)
	}
}

func labeledFromSamples(ss []Sample) []workload.Labeled {
	out := make([]workload.Labeled, len(ss))
	for i, s := range ss {
		out[i] = workload.Labeled{Q: s.Q, Card: s.Card}
	}
	return out
}

func TestQueryDrivenBeatsConstantOnTrainSet(t *testing.T) {
	w := getWorld(t)
	for _, name := range []string{"gbdt", "mscn", "mlp"} {
		e, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Train(w.ctx); err != nil {
			t.Fatal(err)
		}
		// Constant predictor: geometric mean of training cards.
		logs := 0.0
		for _, s := range w.ctx.Train {
			logs += math.Log1p(s.Card)
		}
		constant := math.Expm1(logs / float64(len(w.ctx.Train)))
		var modelQ, constQ []float64
		for _, s := range w.ctx.Train {
			modelQ = append(modelQ, metrics.QError(e.Estimate(s.Q), s.Card))
			constQ = append(constQ, metrics.QError(constant, s.Card))
		}
		mg, cg := metrics.GeoMean(modelQ), metrics.GeoMean(constQ)
		if mg >= cg {
			t.Errorf("%s train geo q-error %v not better than constant %v", name, mg, cg)
		}
	}
}

func TestFactorJoinHandlesSkewBetterThanFormulaOnJoins(t *testing.T) {
	w := getWorld(t)
	fj := NewFactorJoin()
	if err := fj.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	hist := NewHistogramEstimator()
	if err := hist.Train(w.ctx); err != nil {
		t.Fatal(err)
	}
	var fjQ, hQ []float64
	for _, s := range append(w.test, labeledFromSamples(w.ctx.Train)...) {
		if len(s.Q.Joins) == 0 {
			continue
		}
		fjQ = append(fjQ, metrics.QError(fj.Estimate(s.Q), s.Card))
		hQ = append(hQ, metrics.QError(hist.Estimate(s.Q), s.Card))
	}
	if len(fjQ) < 5 {
		t.Skip("not enough join queries")
	}
	// FactorJoin's bucket method should not be dramatically worse than the
	// independence formula on skewed FK joins (it is usually better).
	if metrics.GeoMean(fjQ) > metrics.GeoMean(hQ)*2 {
		t.Fatalf("factorjoin geo %v vs histogram %v", metrics.GeoMean(fjQ), metrics.GeoMean(hQ))
	}
}

func TestEstimatorDeterminism(t *testing.T) {
	w := getWorld(t)
	for _, name := range []string{"gbdt", "spn", "bayesnet", "factorjoin"} {
		e1, _ := ByName(name)
		e2, _ := ByName(name)
		if err := e1.Train(w.ctx); err != nil {
			t.Fatal(err)
		}
		if err := e2.Train(w.ctx); err != nil {
			t.Fatal(err)
		}
		q := w.test[0].Q
		if e1.Estimate(q) != e2.Estimate(q) {
			t.Errorf("%s not deterministic", name)
		}
	}
}

func TestFeaturizerVectorShape(t *testing.T) {
	w := getWorld(t)
	f := NewFeaturizer(w.cat, w.cs, w.ctx.Train)
	for _, s := range w.test {
		v := f.Vector(s.Q)
		if len(v) != f.Dim() {
			t.Fatalf("vector len %d != dim %d", len(v), f.Dim())
		}
		for _, x := range v {
			if math.IsNaN(x) || x < 0 || x > 1 {
				t.Fatalf("feature out of range: %v", x)
			}
		}
	}
}

func TestFeaturizerSetElements(t *testing.T) {
	w := getWorld(t)
	f := NewFeaturizer(w.cat, w.cs, w.ctx.Train)
	for _, s := range w.test {
		tbl, jn, pr := f.SetElements(s.Q)
		if len(tbl) != len(s.Q.Refs) || len(jn) != len(s.Q.Joins) || len(pr) != len(s.Q.Preds) {
			t.Fatal("set element counts wrong")
		}
		for _, e := range tbl {
			if len(e) != f.TableElemDim() {
				t.Fatal("table elem dim")
			}
		}
		for _, e := range jn {
			if len(e) != f.JoinElemDim() {
				t.Fatal("join elem dim")
			}
		}
		for _, e := range pr {
			if len(e) != f.PredElemDim() {
				t.Fatal("pred elem dim")
			}
		}
	}
}

func TestClampCard(t *testing.T) {
	w := getWorld(t)
	q := w.test[0].Q
	if clampCard(math.NaN(), w.cat, q) != 0 {
		t.Fatal("NaN not clamped")
	}
	if clampCard(-5, w.cat, q) != 0 {
		t.Fatal("negative not clamped")
	}
	if clampCard(1e30, w.cat, q) != maxCard(w.cat, q) {
		t.Fatal("overflow not clamped")
	}
}

func TestQErrorBasics(t *testing.T) {
	if metrics.QError(10, 10) != 1 {
		t.Fatal("exact estimate q-error should be 1")
	}
	if metrics.QError(100, 10) != 10 || metrics.QError(10, 100) != 10 {
		t.Fatal("q-error should be symmetric")
	}
	if metrics.QError(0, 0) != 1 {
		t.Fatal("zero/zero should floor to 1")
	}
}
