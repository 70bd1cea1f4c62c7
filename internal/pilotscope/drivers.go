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
	ic := ctx.Context()
	sess := &Session{}
	catAny, err := ctx.DB.Pull(ic, sess, PullCatalog, nil)
	if err != nil {
		return err
	}
	cat := catAny.(*data.Catalog)
	statsAny, err := ctx.DB.Pull(ic, sess, PullStats, nil)
	if err != nil {
		return err
	}
	cs := statsAny.(*stats.CatalogStats)

	var train []cardest.Sample
	for _, sql := range ctx.Workload {
		if err := ic.Err(); err != nil {
			return err
		}
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		cardAny, err := ctx.DB.Pull(ic, sess, PullTrueCard, q)
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

// BaoDriver is the tutorial's Bao sample application [37]: Init executes
// the workload under every hint-set arm through the middleware (push
// hints → execute → observe latency), trains a value model, and Algo
// pushes the predicted-best arm's hints for each incoming query.
type BaoDriver struct {
	// Arms are the steerable hint sets.
	Arms []plan.HintSet
	// Value predicts plan latency.
	Value costmodel.Model

	db DB
}

// NewBaoDriver returns a Bao driver with default arms and value model.
func NewBaoDriver() *BaoDriver {
	return &BaoDriver{Arms: plan.BaoHintSets(), Value: costmodel.NewGBDTCost(false)}
}

// Name implements Driver.
func (d *BaoDriver) Name() string { return "bao" }

// Injection implements Driver.
func (d *BaoDriver) Injection() InjectionType { return InjectPlan }

// Init implements Driver.
func (d *BaoDriver) Init(ctx *InitContext) error {
	d.db = ctx.DB
	ic := ctx.Context()
	catAny, err := ctx.DB.Pull(ic, &Session{}, PullCatalog, nil)
	if err != nil {
		return err
	}
	cat := catAny.(*data.Catalog)
	statsAny, err := ctx.DB.Pull(ic, &Session{}, PullStats, nil)
	if err != nil {
		return err
	}
	cs := statsAny.(*stats.CatalogStats)

	var exp []costmodel.TrainPlan
	for _, sql := range ctx.Workload {
		if err := ic.Err(); err != nil {
			return err
		}
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		seen := map[string]bool{}
		for _, h := range d.Arms {
			sess := &Session{Query: q}
			if err := ctx.DB.Push(ic, sess, PushHints, h); err != nil {
				return err
			}
			planAny, err := ctx.DB.Pull(ic, sess, PullPlan, q)
			if err != nil {
				continue
			}
			p := planAny.(*plan.Node)
			if seen[p.Fingerprint()] {
				continue
			}
			seen[p.Fingerprint()] = true
			res, err := ctx.DB.ExecuteQuery(ic, sess, q)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: res.Latency})
		}
	}
	return d.Value.Train(&costmodel.Context{Cat: cat, Stats: cs, Plans: exp, Seed: ctx.Seed + 7})
}

// Algo implements Driver: pull each arm's plan, predict, push the winner's
// hints.
func (d *BaoDriver) Algo(ctx context.Context, sess *Session) error {
	if sess.Query == nil {
		return fmt.Errorf("pilotscope: bao driver needs sess.Query")
	}
	best := math.Inf(1)
	var bestHints plan.HintSet
	for _, h := range d.Arms {
		probe := &Session{Query: sess.Query}
		if err := d.db.Push(ctx, probe, PushHints, h); err != nil {
			return err
		}
		planAny, err := d.db.Pull(ctx, probe, PullPlan, sess.Query)
		if err != nil {
			continue
		}
		if v := d.Value.Predict(sess.Query, planAny.(*plan.Node)); v < best {
			best, bestHints = v, h
		}
	}
	return d.db.Push(ctx, sess, PushHints, bestHints)
}

// LeroDriver is the tutorial's Lero sample application [79]: Init executes
// the workload under each cardinality scaling factor, trains the pairwise
// comparator on the resulting plan pairs, and Algo pushes the factor whose
// plan wins the comparison tournament.
type LeroDriver struct {
	// Factors are the cardinality scaling knobs.
	Factors []float64
	// Comparator ranks candidate plans.
	Comparator *leroComparator

	db DB
}

// leroComparator ranks two plans by a costmodel.GBDTCost latency
// regressor trained on the executed plans: the plan with the lower
// predicted latency wins. It is pointwise, not the learnedopt Lero's
// pairwise model.
type leroComparator struct {
	gb *costmodel.GBDTCost
}

func (c *leroComparator) train(cat *data.Catalog, cs *stats.CatalogStats, exp []costmodel.TrainPlan, seed int64) error {
	c.gb = costmodel.NewGBDTCost(false)
	return c.gb.Train(&costmodel.Context{Cat: cat, Stats: cs, Plans: exp, Seed: seed})
}

func (c *leroComparator) better(q *query.Query, a, b *plan.Node) bool {
	return c.gb.Predict(q, a) < c.gb.Predict(q, b)
}

// NewLeroDriver returns a Lero driver with the default factor knobs.
func NewLeroDriver() *LeroDriver {
	return &LeroDriver{Factors: []float64{0.01, 0.1, 1, 10, 100}, Comparator: &leroComparator{}}
}

// Name implements Driver.
func (d *LeroDriver) Name() string { return "lero" }

// Injection implements Driver.
func (d *LeroDriver) Injection() InjectionType { return InjectPlan }

// Init implements Driver.
func (d *LeroDriver) Init(ctx *InitContext) error {
	d.db = ctx.DB
	ic := ctx.Context()
	catAny, err := ctx.DB.Pull(ic, &Session{}, PullCatalog, nil)
	if err != nil {
		return err
	}
	cat := catAny.(*data.Catalog)
	statsAny, err := ctx.DB.Pull(ic, &Session{}, PullStats, nil)
	if err != nil {
		return err
	}
	cs := statsAny.(*stats.CatalogStats)

	var exp []costmodel.TrainPlan
	for _, sql := range ctx.Workload {
		if err := ic.Err(); err != nil {
			return err
		}
		q, err := sqlx.Parse(sql, cat)
		if err != nil {
			continue
		}
		seen := map[string]bool{}
		for _, f := range d.Factors {
			sess := &Session{Query: q}
			if err := ctx.DB.Push(ic, sess, PushCardScale, f); err != nil {
				return err
			}
			planAny, err := ctx.DB.Pull(ic, sess, PullPlan, q)
			if err != nil {
				continue
			}
			p := planAny.(*plan.Node)
			if seen[p.Fingerprint()] {
				continue
			}
			seen[p.Fingerprint()] = true
			res, err := ctx.DB.ExecuteQuery(ic, sess, q)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: res.Latency})
		}
	}
	return d.Comparator.train(cat, cs, exp, ctx.Seed+13)
}

// Algo implements Driver.
func (d *LeroDriver) Algo(ctx context.Context, sess *Session) error {
	if sess.Query == nil {
		return fmt.Errorf("pilotscope: lero driver needs sess.Query")
	}
	type cand struct {
		factor float64
		p      *plan.Node
	}
	var cands []cand
	seen := map[string]bool{}
	for _, f := range d.Factors {
		probe := &Session{Query: sess.Query}
		if err := d.db.Push(ctx, probe, PushCardScale, f); err != nil {
			return err
		}
		planAny, err := d.db.Pull(ctx, probe, PullPlan, sess.Query)
		if err != nil {
			continue
		}
		p := planAny.(*plan.Node)
		if !seen[p.Fingerprint()] {
			seen[p.Fingerprint()] = true
			cands = append(cands, cand{f, p})
		}
	}
	if len(cands) == 0 {
		return fmt.Errorf("pilotscope: lero produced no candidates")
	}
	bestWins, best := -1, cands[0]
	for _, c := range cands {
		wins := 0
		for _, o := range cands {
			if c.p != o.p && d.Comparator.better(sess.Query, c.p, o.p) {
				wins++
			}
		}
		if wins > bestWins {
			bestWins, best = wins, c
		}
	}
	return d.db.Push(ctx, sess, PushCardScale, best.factor)
}
