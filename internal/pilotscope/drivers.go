package pilotscope

import (
	"context"
	"fmt"

	"lqo/internal/cardest"
	"lqo/internal/costmodel"
	"lqo/internal/data"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// pullCatalog pulls the database's catalog: every driver's Init and the
// console's SQL entry point parse against it.
func pullCatalog(ctx context.Context, db DB) (*data.Catalog, error) {
	catAny, err := db.Pull(ctx, &Session{}, PullCatalog, nil)
	if err != nil {
		return nil, err
	}
	return catAny.(*data.Catalog), nil
}

// pullCatalogStats is the learning drivers' Init prologue: the catalog
// and the statistics their models are trained against.
func pullCatalogStats(ctx *InitContext) (*data.Catalog, *stats.CatalogStats, error) {
	cat, err := pullCatalog(ctx.Ctx, ctx.DB)
	if err != nil {
		return nil, nil, err
	}
	statsAny, err := ctx.DB.Pull(ctx.Ctx, &Session{}, PullStats, nil)
	if err != nil {
		return nil, nil, err
	}
	return cat, statsAny.(*stats.CatalogStats), nil
}

// CardEstDriver is the tutorial's first sample application: it deploys
// any learned cardinality estimator behind the cardinality injection
// interface. Per query, it enumerates the optimizer-relevant sub-queries
// and pushes their estimates in a batch — exactly the paper's "replace
// the cardinality of all sub-queries in a batch manner".
type CardEstDriver struct {
	// Estimator is the method being deployed (any cardest.Estimator).
	Estimator cardest.Estimator

	db DB
}

// NewCardEstDriver wraps est as a PilotScope driver.
func NewCardEstDriver(est cardest.Estimator) *CardEstDriver {
	return &CardEstDriver{Estimator: est}
}

// Name implements Driver.
func (d *CardEstDriver) Name() string { return "cardest:" + d.Estimator.Name() }

// Injection implements Driver.
func (d *CardEstDriver) Injection() InjectionType { return InjectCardinalities }

// Init implements Driver: pull catalog + statistics, label the registered
// workload's sub-queries through PullTrueCard, and train the estimator.
func (d *CardEstDriver) Init(ctx *InitContext) error {
	d.db = ctx.DB
	cat, cs, err := pullCatalogStats(ctx)
	if err != nil {
		return err
	}
	var train []cardest.Sample
	for _, sql := range ctx.Workload {
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		cardAny, err := ctx.DB.Pull(ctx.Ctx, &Session{}, PullTrueCard, q)
		if err != nil {
			continue
		}
		train = append(train, cardest.Sample{Q: q, Card: cardAny.(float64)})
	}
	return d.Estimator.Train(&cardest.Context{Cat: cat, Stats: cs, Train: train, Seed: ctx.Seed})
}

// Algo implements Driver: estimate every connected sub-query of the
// session's query and push the batch. Estimates are clamped before they
// leave the driver — a learned model emitting NaN/Inf/non-positive
// outliers (the failure mode Wang et al. document) must never hand the
// cost model a non-finite value.
func (d *CardEstDriver) Algo(ctx context.Context, sess *Session) error {
	if sess.Query == nil {
		return fmt.Errorf("pilotscope: cardest driver needs sess.Query")
	}
	subsAny, err := d.db.Pull(ctx, sess, PullSubqueries, sess.Query)
	if err != nil {
		return err
	}
	cards := map[string]float64{}
	for _, sub := range subsAny.([]*query.Query) {
		cards[sub.Key()] = metrics.ClampCard(d.Estimator.Estimate(sub))
	}
	return d.db.Push(ctx, sess, PushCards, cards)
}

// SteeringDriver deploys the tutorial's Bao [37] and Lero [79] sample
// applications through push/pull: it is learnedopt's steering core with
// "push the knob into a probe session, then pull its plan" as the plan
// step and ExecuteQuery as the run step. Bao's knobs are hint sets pushed
// through PushHints, Lero's cardinality scaling factors pushed through
// PushCardScale; both rank with a pointwise latency regressor. Algo
// pushes the knob of the candidate the core selects.
type SteeringDriver struct {
	name  string
	push  PushKind // PushHints or PushCardScale
	knobs []any    // the push's payloads, in selection-priority order
	seed  int64    // added to the console seed when training the model
	value costmodel.Model

	db DB
}

// NewBaoDriver returns the Bao driver: learnedopt.HintKnobs arms.
func NewBaoDriver() *SteeringDriver {
	return &SteeringDriver{name: "bao", push: PushHints, knobs: learnedopt.HintKnobs(), seed: 7}
}

// NewLeroDriver returns the Lero driver: learnedopt.ScaleKnobs factors.
func NewLeroDriver() *SteeringDriver {
	return &SteeringDriver{name: "lero", push: PushCardScale, knobs: learnedopt.ScaleKnobs(), seed: 13}
}

// Name implements Driver.
func (d *SteeringDriver) Name() string { return d.name }

// Injection implements Driver.
func (d *SteeringDriver) Injection() InjectionType { return InjectPlan }

// steering is the core over this driver's knobs and model.
func (d *SteeringDriver) steering(value costmodel.Model) *learnedopt.Steering {
	return learnedopt.NewSteering(d.name, d.knobs, value, d.seed, d.pullPlan, d.execute)
}

// Init implements Driver: train a fresh value model on the executed
// candidates of every workload query.
func (d *SteeringDriver) Init(ctx *InitContext) error {
	d.db = ctx.DB
	cat, cs, err := pullCatalogStats(ctx)
	if err != nil {
		return err
	}
	var qs []*query.Query
	for _, sql := range ctx.Workload {
		if q, err := sqlx.Parse(sql, cat); err == nil {
			qs = append(qs, q)
		}
	}
	value := costmodel.NewGBDTCost(false)
	if err := d.steering(value).Train(ctx.Ctx, &learnedopt.Context{Cat: cat, Stats: cs, Workload: qs, Seed: ctx.Seed}); err != nil {
		return err
	}
	d.value = value
	return nil
}

// Algo implements Driver: push the knob of the candidate the core picks.
func (d *SteeringDriver) Algo(ctx context.Context, sess *Session) error {
	if sess.Query == nil {
		return fmt.Errorf("pilotscope: %s driver needs sess.Query", d.name)
	}
	c, err := d.steering(d.value).Choose(ctx, sess.Query)
	if err != nil {
		return err
	}
	return d.db.Push(ctx, sess, d.push, c.Knob)
}

// probe pushes knob into a fresh session for q.
func (d *SteeringDriver) probe(ctx context.Context, q *query.Query, knob any) (*Session, error) {
	sess := &Session{Query: q}
	return sess, d.db.Push(ctx, sess, d.push, knob)
}

// pullPlan is the core's plan step: q's plan under knob.
func (d *SteeringDriver) pullPlan(ctx context.Context, q *query.Query, knob any) (*plan.Node, error) {
	sess, err := d.probe(ctx, q, knob)
	if err != nil {
		return nil, err
	}
	p, err := d.db.Pull(ctx, sess, PullPlan, q)
	if err != nil {
		return nil, err
	}
	return p.(*plan.Node), nil
}

// execute is the core's run step: q's latency under knob.
func (d *SteeringDriver) execute(ctx context.Context, q *query.Query, knob any, _ *plan.Node) (float64, error) {
	sess, err := d.probe(ctx, q, knob)
	if err != nil {
		return 0, err
	}
	res, err := d.db.ExecuteQuery(ctx, sess, q)
	if err != nil {
		return 0, err
	}
	return res.Latency, nil
}
