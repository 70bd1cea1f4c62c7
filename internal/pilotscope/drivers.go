package pilotscope

import (
	"context"
	"fmt"
	"math"

	"lqo/internal/cardest"
	"lqo/internal/costmodel"
	"lqo/internal/data"
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

// Update implements Updater: retrain on the (possibly changed) database.
func (d *CardEstDriver) Update(ctx *InitContext) error { return d.Init(ctx) }

// SteeringDriver is the tutorial's Bao [37] and Lero [79] sample
// applications, one algorithm over two knob lists: Bao's hint-set arms
// pushed through PushHints, or Lero's cardinality scaling factors pushed
// through PushCardScale. Init executes each workload query's distinct
// plans under every knob through push/pull (push knob → pull plan →
// execute → observe latency) and trains a value model on them; Algo
// pushes the knob whose plan the model predicts fastest.
//
// Lero proper ranks plans with a pairwise comparator; this driver's model
// is a pointwise latency regressor, and a win-count tournament over a
// pointwise model picks exactly the lowest prediction, so both drivers
// share one selection rule.
type SteeringDriver struct {
	name  string
	push  PushKind // PushHints or PushCardScale
	knobs []any    // the push's payloads, in selection-priority order
	seed  int64    // added to the console seed when training the model
	value costmodel.Model

	db DB
}

// NewBaoDriver returns the Bao driver: plan.BaoHintSets arms.
func NewBaoDriver() *SteeringDriver {
	d := &SteeringDriver{name: "bao", push: PushHints, seed: 7}
	for _, h := range plan.BaoHintSets() {
		d.knobs = append(d.knobs, h)
	}
	return d
}

// NewLeroDriver returns the Lero driver: cardinality scaling factors.
func NewLeroDriver() *SteeringDriver {
	return &SteeringDriver{name: "lero", push: PushCardScale, knobs: []any{0.01, 0.1, 1.0, 10.0, 100.0}, seed: 13}
}

// Name implements Driver.
func (d *SteeringDriver) Name() string { return d.name }

// Injection implements Driver.
func (d *SteeringDriver) Injection() InjectionType { return InjectPlan }

// Init implements Driver: execute every workload query's candidate plans
// and train a fresh value model on their latencies.
func (d *SteeringDriver) Init(ctx *InitContext) error {
	d.db = ctx.DB
	cat, cs, err := pullCatalogStats(ctx)
	if err != nil {
		return err
	}
	var exp []costmodel.TrainPlan
	for _, sql := range ctx.Workload {
		if err := ctx.Ctx.Err(); err != nil {
			return err
		}
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		cands, err := d.candidates(ctx.Ctx, q)
		if err != nil {
			return err
		}
		for _, c := range cands {
			res, err := ctx.DB.ExecuteQuery(ctx.Ctx, c.sess, q)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: c.plan, Latency: res.Latency})
		}
	}
	value := costmodel.NewGBDTCost(false)
	if err := value.Train(&costmodel.Context{Cat: cat, Stats: cs, Plans: exp, Seed: ctx.Seed + d.seed}); err != nil {
		return err
	}
	d.value = value
	return nil
}

// Algo implements Driver: push the first knob whose plan has the lowest
// predicted latency. A NaN prediction never wins; if every prediction is
// NaN the first candidate does.
func (d *SteeringDriver) Algo(ctx context.Context, sess *Session) error {
	if sess.Query == nil {
		return fmt.Errorf("pilotscope: %s driver needs sess.Query", d.name)
	}
	cands, err := d.candidates(ctx, sess.Query)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		return fmt.Errorf("pilotscope: %s produced no candidates", d.name)
	}
	best, bestV := cands[0], math.Inf(1)
	for _, c := range cands {
		if v := d.value.Predict(sess.Query, c.plan); v < bestV {
			best, bestV = c, v
		}
	}
	return d.db.Push(ctx, sess, d.push, best.knob)
}

// candidate is one knob's plan for a query, with the probe session the
// knob was pushed into.
type candidate struct {
	knob any
	sess *Session
	plan *plan.Node
}

// candidates pushes each knob into a fresh probe session for q and pulls
// its plan, keeping the first knob of each distinct plan. A knob whose
// plan cannot be pulled is skipped; a failed push aborts.
func (d *SteeringDriver) candidates(ctx context.Context, q *query.Query) ([]candidate, error) {
	var out []candidate
	seen := map[string]bool{}
	for _, k := range d.knobs {
		sess := &Session{Query: q}
		if err := d.db.Push(ctx, sess, d.push, k); err != nil {
			return nil, err
		}
		planAny, err := d.db.Pull(ctx, sess, PullPlan, q)
		if err != nil {
			continue
		}
		p := planAny.(*plan.Node)
		if fp := p.Fingerprint(); !seen[fp] {
			seen[fp] = true
			out = append(out, candidate{knob: k, sess: sess, plan: p})
		}
	}
	return out, nil
}
