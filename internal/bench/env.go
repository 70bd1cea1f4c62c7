package bench

import (
	"context"
	"fmt"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/stats"
	"lqo/internal/workload"
)

// Scale configures experiment sizes. Quick (default) keeps everything
// laptop-instant; Full uses the DESIGN.md workload sizes.
type Scale struct {
	Data  float64 // datagen scale factor
	Train int     // training queries
	Test  int     // test queries
}

// QuickScale is the CI-friendly configuration.
func QuickScale() Scale { return Scale{Data: 0.05, Train: 80, Test: 40} }

// FullScale is the DESIGN.md experiment configuration (minutes, not
// seconds, on one core).
func FullScale() Scale { return Scale{Data: 0.2, Train: 300, Test: 150} }

// Env bundles a database with its statistics, executor, native optimizer
// and labeled train/test workloads — the substrate every experiment runs
// on.
type Env struct {
	Name  string
	Scale Scale
	Cat   *data.Catalog
	Stats *stats.CatalogStats
	Ex    *exec.Executor
	Cache *exec.CardCache
	Base  *opt.Optimizer
	Train []workload.Labeled
	Test  []workload.Labeled
	Seed  int64
}

// NewEnv builds an experiment environment over the named generator
// ("stats", "job", "tpch").
func NewEnv(dataset string, sc Scale, seed int64) (*Env, error) {
	var cat *data.Catalog
	switch dataset {
	case "stats":
		cat = datagen.StatsCEB(datagen.Config{Seed: seed, Scale: sc.Data})
	case "job":
		cat = datagen.JOBLite(datagen.Config{Seed: seed, Scale: sc.Data})
	case "tpch":
		cat = datagen.TPCHLite(datagen.Config{Seed: seed, Scale: sc.Data})
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", dataset)
	}
	cs := stats.CollectCatalog(cat, stats.Options{Seed: seed})
	ex := exec.New(cat)
	cache := exec.NewCardCache(ex)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: seed}); err != nil {
		return nil, err
	}
	base := opt.New(cat, cost.New(cs), hist)
	labeled, err := workload.GenLabeled(cat, cache, workload.Options{Seed: seed, Count: sc.Train + sc.Test, MaxJoins: 4, MaxPreds: 3})
	if err != nil {
		return nil, err
	}
	return &Env{
		Name: dataset, Scale: sc, Cat: cat, Stats: cs, Ex: ex, Cache: cache, Base: base,
		Train: labeled[:sc.Train], Test: labeled[sc.Train:], Seed: seed,
	}, nil
}

// CardestContext converts the environment's training split into a
// cardinality-estimation training context.
func (e *Env) CardestContext() *cardest.Context {
	train := make([]cardest.Sample, len(e.Train))
	for i, l := range e.Train {
		train[i] = cardest.Sample{Q: l.Q, Card: l.Card}
	}
	return &cardest.Context{Cat: e.Cat, Stats: e.Stats, Train: train, Seed: e.Seed}
}

// Experiment is one regenerated table. Run builds it on env with the
// experiment's fixed parameters, so a table depends only on the
// environment's dataset, scale and seed.
type Experiment struct {
	ID  string
	Run func(ctx context.Context, env *Env) (*Report, error)
}

// Experiments is the only list of experiments, in table order: lqo-bench
// and the root package's benchmarks run these and nothing else.
var Experiments = []Experiment{
	{"E1", E1Cardinality},
	{"E2", E2Drift},
	{"E3", E3CostModel},
	{"E5", E5EndToEnd},
	{"E6", E6Eraser},
	{"E7", E7PilotScope},
	{"E8", E8Ablations},
	{"E9", E9Throughput},
	{"E10", E10Chaos},
	{"E14", E14SustainedLoad},
	{"E15", E15Adaptation},
	{"E16", E16Sharding},
}
