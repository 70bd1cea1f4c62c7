package main

import (
	"context"
	"fmt"
	"time"

	"lqo/internal/adapt"
	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/datagen"
	"lqo/internal/exec"
	"lqo/internal/opt"
	"lqo/internal/serve"
	"lqo/internal/stats"
)

const tenant = "bench"

// maxWarmPasses bounds the warm-up; the hit workloads settle in 2 to 4
// replays of the round.
const maxWarmPasses = 16

// setupSplit is where set-up time went; the four parts sum to setup_s.
type setupSplit struct {
	Datagen, Stats, Train, Warm float64
}

func (s setupSplit) total() float64 { return s.Datagen + s.Stats + s.Train + s.Warm }

// base is the part of the program's state a fresh server can be built on:
// the database, its statistics, the trained estimator and the executor.
type base struct {
	cat  *data.Catalog
	cs   *stats.CatalogStats
	est  cardest.Estimator
	ex   *exec.Executor
	pool *exec.BatchPool
}

// newBase generates the database and trains the estimator, timing each
// step into split.
func newBase(sp spec, seed int64, split *setupSplit) (*base, error) {
	t0 := time.Now()
	cat := datagen.StatsCEB(datagen.Config{Seed: seed, Scale: sp.Scale})
	t1 := time.Now()
	cs := stats.CollectCatalog(cat, stats.Options{Seed: seed})
	t2 := time.Now()
	est, err := trainEstimator(sp.Estimator, cat, cs, seed)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	split.Datagen += t1.Sub(t0).Seconds()
	split.Stats += t2.Sub(t1).Seconds()
	split.Train += t3.Sub(t2).Seconds()
	// The run protocol pins intra-query parallelism off: on 2 shared
	// cores Workers>1 measures the scheduler (README, "Not measured").
	// The pool is the one serve.New would install; the harness holds it
	// to read InUse after the traced run.
	ex := exec.New(cat)
	ex.Workers = 1
	pool := exec.NewBatchPool()
	ex.SetPool(pool)
	return &base{cat: cat, cs: cs, est: est, ex: ex, pool: pool}, nil
}

// target is one server under test with what the harness needs to drive
// it: prepared statements, and on drift_adapt the adaptation loop whose
// Tick runs after every query.
type target struct {
	b     *base
	opt   *opt.Optimizer
	srv   *serve.Server
	stmts []*serve.Stmt
	loop  *adapt.Loop
}

// adaptConfig is adapt.Config's defaults: what a user who wires the loop
// up gets.
func adaptConfig(seed int64, cat *data.Catalog) adapt.Config {
	return adapt.Config{Seed: seed, Cat: cat}
}

// newTarget builds a server with serve.Config{} defaults on b. On
// drift_adapt the estimator sits behind an adapt.Swappable and an
// adapt.Loop observes every execution; the loop is never Start-ed, the
// harness calls Tick, so no goroutine outlives a request.
func newTarget(b *base, p *prep, seed int64) (*target, error) {
	t := &target{b: b}
	var est opt.CardEstimator = b.est
	var sw *adapt.Swappable
	if p.Spec.Stages > 0 {
		sw = adapt.NewSwappable(b.est)
		est = sw
	}
	t.opt = opt.New(b.cat, cost.New(b.cs), est)
	t.srv = serve.New(b.cat, t.opt, b.ex, serve.Config{})
	if sw != nil {
		t.loop = adapt.NewLoop(sw, t.srv, adapt.NewGate(t.opt, b.ex, adapt.GateConfig{}), adaptConfig(seed, b.cat))
		t.srv.SetObserver(t.loop)
	}
	for _, sql := range p.Templates {
		st, err := t.srv.Prepare(sql)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		t.stmts = append(t.stmts, st)
	}
	return t, nil
}

// do sends one request the way a client would and, on drift_adapt, gives
// the adaptation loop its turn before the client's next request.
func (t *target) do(ctx context.Context, o *op) (*serve.Result, error) {
	var res *serve.Result
	var err error
	if o.Args != nil {
		res, err = t.srv.Exec(ctx, tenant, t.stmts[o.Stmt], o.Args...)
	} else {
		res, err = t.srv.Query(ctx, tenant, o.SQL)
	}
	if t.loop != nil {
		if _, terr := t.loop.Tick(ctx); terr != nil && err == nil {
			err = terr
		}
	}
	return res, err
}

// beforeStage applies what happens to the world between two stages of an
// episode: the data drifts and a fresh holdout log becomes available.
func beforeStage(cat *data.Catalog, loop *adapt.Loop, ep *episode, stage int) {
	if loop == nil {
		return
	}
	if stage > 0 {
		datagen.ApplyDrift(cat, driftOptions(ep.Seed, stage))
	}
	loop.SetHoldout(ep.Segments[stage].Holdout)
}

// env is one from-scratch set-up of a workload: everything setup_s pays
// for. Hit workloads keep one warmed target for all rounds; fresh
// workloads build a new target per episode (and on drift_adapt a new
// database, which the episode mutates), outside the timed region.
type env struct {
	p      *prep
	b      *base // the first episode's database
	warmed *target
	held   []*target // fresh workloads: the servers of the latest untimed round
	split  setupSplit
}

// newEnv sets the program up from scratch and warms it until plan cache,
// feedback store, buffer pool and zone maps are filled.
func newEnv(ctx context.Context, p *prep) (*env, error) {
	e := &env{p: p}
	b, err := newBase(p.Spec, p.Episodes[0].Seed, &e.split)
	if err != nil {
		return nil, err
	}
	e.b = b
	t0 := time.Now()
	if p.Spec.Fresh {
		// One throwaway round: a fresh server has nothing to warm, but the
		// executor's pool, the columns' zone maps and the runtime's heap do.
		if err := runRound(ctx, e, nil); err != nil {
			return nil, err
		}
	} else {
		t, err := newTarget(b, p, p.Seed)
		if err != nil {
			return nil, err
		}
		e.warmed = t
		// Replay the round until a whole replay neither plans nor
		// invalidates: the first executions invalidate plans whose
		// estimates were off, the next replan them with harvested
		// cardinalities. The round itself, not its distinct ops in some
		// other order: whether a binding invalidates a generic plan
		// depends on which bindings came before it.
		for pass, churn := 0, int64(-1); pass < maxWarmPasses; pass++ {
			if err := runRound(ctx, e, nil); err != nil {
				return nil, err
			}
			st := t.srv.Stats()
			now := st.ColdPlans + st.Cache.Invalidations
			if now == churn {
				break
			}
			churn = now
		}
	}
	e.split.Warm = time.Since(t0).Seconds()
	return e, nil
}

// episodeBase returns the database episode k runs on: the set-up's own,
// or on drift_adapt a newly generated one, since the episode drifts it.
func (e *env) episodeBase(k int) (*base, error) {
	if e.p.Spec.Stages == 0 {
		return e.b, nil
	}
	var untimed setupSplit
	return newBase(e.p.Spec, e.p.Episodes[k].Seed, &untimed)
}

// target returns the server episode k runs against, building a fresh one
// where the workload calls for it.
func (e *env) target(k int) (*target, error) {
	if !e.p.Spec.Fresh {
		return e.warmed, nil
	}
	b, err := e.episodeBase(k)
	if err != nil {
		return nil, err
	}
	return newTarget(b, e.p, e.p.Episodes[k].Seed)
}
