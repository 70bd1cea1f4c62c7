// Package pilotscope implements the AI4DB middleware of the tutorial's
// Section 3 (PilotScope [80]): a console managing drivers, a DB-interactor
// interface with push/pull operators that shields drivers from engine
// details, per-interaction sessions, and reference drivers for a learned
// cardinality estimator and the Bao/Lero end-to-end optimizers — the same
// sample applications the tutorial demonstrates.
package pilotscope

import (
	"context"
	"fmt"

	"lqo/internal/cardest"
	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/feedback"
	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
	"lqo/internal/stats"
)

// PushKind enumerates the actions a driver can enforce on the database
// through a session.
type PushKind int

// Push operators.
const (
	// PushHints steers the optimizer with a plan.HintSet payload.
	PushHints PushKind = iota
	// PushCardScale multiplies sub-query cardinality estimates by
	// factor^(tables−1); payload float64 (the Lero knob).
	PushCardScale
	// PushCards injects exact sub-query cardinalities; payload
	// map[string]float64 keyed by query.Query.Key().
	PushCards
	// PushPlan forces a complete physical plan; payload *plan.Node.
	PushPlan
	// PushIndex builds an equality index; payload IndexSpec. Unlike the
	// other pushes this changes durable database state, not the session.
	PushIndex
)

// PullKind enumerates the data a driver can acquire from the database.
type PullKind int

// Pull operators.
const (
	// PullStats returns *stats.CatalogStats.
	PullStats PullKind = iota
	// PullCatalog returns *data.Catalog.
	PullCatalog
	// PullTrueCard executes the payload *query.Query and returns float64.
	PullTrueCard
	// PullPlan optimizes the payload *query.Query under the session's
	// pushed state and returns *plan.Node without executing.
	PullPlan
	// PullSubqueries returns the payload *query.Query's connected
	// sub-queries as []*query.Query.
	PullSubqueries
)

// Result is what a database user gets back from ExecuteSQL.
type Result struct {
	Count   int64      // result cardinality
	Value   float64    // the query's aggregate (equals Count for COUNT(*))
	Latency float64    // deterministic work units
	Plan    *plan.Node // the executed plan, TrueCard-annotated
}

// Session is one interaction between an AI4DB algorithm and the database:
// it accumulates pushed state that the next execution honors.
type Session struct {
	// Query is the logical query the driver is being consulted for.
	Query *query.Query

	hints     *plan.HintSet
	cardScale float64
	cards     map[string]float64
	forced    *plan.Node
}

// Reset clears all pushed state.
func (s *Session) Reset() {
	s.hints = nil
	s.cardScale = 0
	s.cards = nil
	s.forced = nil
}

// DB is the interactor interface: the unified bridge drivers use to steer
// any database. The workbench ships the engine implementation; a real
// deployment would implement the same interface as lightweight patches on
// PostgreSQL et al. Every method takes a context: deadlines and
// cancellation flow from the database user through the middleware into
// planning and execution, so a driver can never hold a query past its
// budget.
type DB interface {
	// Push enforces an action on the session.
	Push(ctx context.Context, sess *Session, kind PushKind, payload any) error
	// Pull acquires data from the database.
	Pull(ctx context.Context, sess *Session, kind PullKind, payload any) (any, error)
	// ExecuteQuery optimizes (honoring the session's pushed state) and
	// executes an already-parsed query.
	ExecuteQuery(ctx context.Context, sess *Session, q *query.Query) (*Result, error)
}

// Engine is the DB-interactor implementation over the workbench engine.
type Engine struct {
	Cat   *data.Catalog
	Stats *stats.CatalogStats
	Ex    *exec.Executor
	Opt   *opt.Optimizer
	cache *exec.CardCache
}

// NewEngine assembles an interactor over cat with the traditional
// histogram estimator and cost model — the "native database".
func NewEngine(cat *data.Catalog, seed int64) (*Engine, error) {
	cs := stats.CollectCatalog(cat, stats.Options{Seed: seed})
	ex := exec.New(cat)
	hist := cardest.NewHistogramEstimator()
	if err := hist.Train(&cardest.Context{Cat: cat, Stats: cs, Seed: seed}); err != nil {
		return nil, err
	}
	return &Engine{
		Cat:   cat,
		Stats: cs,
		Ex:    ex,
		Opt:   opt.New(cat, cost.New(cs), hist),
		cache: exec.NewCardCache(ex),
	}, nil
}

// Push implements DB.
func (e *Engine) Push(ctx context.Context, sess *Session, kind PushKind, payload any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	switch kind {
	case PushHints:
		h, ok := payload.(plan.HintSet)
		if !ok {
			return fmt.Errorf("pilotscope: PushHints wants plan.HintSet, got %T", payload)
		}
		sess.hints = &h
	case PushCardScale:
		f, ok := payload.(float64)
		if !ok {
			return fmt.Errorf("pilotscope: PushCardScale wants float64, got %T", payload)
		}
		sess.cardScale = f
	case PushCards:
		m, ok := payload.(map[string]float64)
		if !ok {
			return fmt.Errorf("pilotscope: PushCards wants map[string]float64, got %T", payload)
		}
		sess.cards = m
	case PushPlan:
		p, ok := payload.(*plan.Node)
		if !ok {
			return fmt.Errorf("pilotscope: PushPlan wants *plan.Node, got %T", payload)
		}
		sess.forced = p
	case PushIndex:
		spec, ok := payload.(IndexSpec)
		if !ok {
			return fmt.Errorf("pilotscope: PushIndex wants IndexSpec, got %T", payload)
		}
		t := e.Cat.Table(spec.Table)
		if t == nil {
			return fmt.Errorf("pilotscope: PushIndex unknown table %q", spec.Table)
		}
		if _, err := t.BuildIndex(spec.Column); err != nil {
			return err
		}
	default:
		return fmt.Errorf("pilotscope: unknown push kind %d", kind)
	}
	return nil
}

// Pull implements DB.
func (e *Engine) Pull(ctx context.Context, sess *Session, kind PullKind, payload any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case PullStats:
		return e.Stats, nil
	case PullCatalog:
		return e.Cat, nil
	case PullTrueCard:
		q, ok := payload.(*query.Query)
		if !ok {
			return nil, fmt.Errorf("pilotscope: PullTrueCard wants *query.Query, got %T", payload)
		}
		return e.cache.TrueCardCtx(ctx, q)
	case PullPlan:
		q, ok := payload.(*query.Query)
		if !ok {
			return nil, fmt.Errorf("pilotscope: PullPlan wants *query.Query, got %T", payload)
		}
		return e.optimize(ctx, sess, q)
	case PullSubqueries:
		q, ok := payload.(*query.Query)
		if !ok {
			return nil, fmt.Errorf("pilotscope: PullSubqueries wants *query.Query, got %T", payload)
		}
		return Subqueries(q), nil
	default:
		return nil, fmt.Errorf("pilotscope: unknown pull kind %d", kind)
	}
}

// Subqueries enumerates the connected sub-queries of q (all sizes).
func Subqueries(q *query.Query) []*query.Query {
	g := query.NewJoinGraph(q)
	var out []*query.Query
	for _, subset := range g.ConnectedSubsets(0) {
		out = append(out, q.Subquery(query.SetOf(subset)))
	}
	return out
}

// optimize plans q under the session's pushed state.
func (e *Engine) optimize(ctx context.Context, sess *Session, q *query.Query) (*plan.Node, error) {
	p, _, err := e.optimizeTrace(ctx, sess, q)
	return p, err
}

// optimizeTrace is optimize returning the rewrite-pass trace as well — the
// provenance EXPLAIN renders. Forced plans bypass the optimizer entirely
// and carry no trace. Pushed cardinalities fill a feedback store through
// q's join graph, overlaid on the engine's estimator scaled by the
// session's factor (the Lero knob), as a server overlays its harvest.
func (e *Engine) optimizeTrace(ctx context.Context, sess *Session, q *query.Query) (*plan.Node, []plan.PassTrace, error) {
	if sess != nil && sess.forced != nil {
		return sess.forced, nil, nil
	}
	o, g := e.Opt, query.NewJoinGraph(q)
	if sess != nil {
		scale := sess.cardScale
		if !(scale > 0) { // unset, negative or NaN: no scaling
			scale = 1
		}
		if sess.cards != nil || scale != 1 {
			st := feedback.NewStore()
			st.Push(g, sess.cards)
			o = o.WithEstimator(&feedback.Overlay{Base: &learnedopt.ScaledEstimator{Base: e.Opt.Est, Factor: scale}, Store: st})
		}
		if sess.hints != nil {
			o = o.WithHints(*sess.hints)
		}
	}
	return o.OptimizeTraceCtx(ctx, g)
}

// Explain parses and optimizes (honoring the session) sql without
// executing it, returning the rendered plan followed by the rewrite-pass
// trace — which passes fired and how the node count changed.
func (e *Engine) Explain(ctx context.Context, sess *Session, sql string) (string, error) {
	q, err := sqlx.Parse(sql, e.Cat)
	if err != nil {
		return "", err
	}
	p, trace, err := e.optimizeTrace(ctx, sess, q)
	if err != nil {
		return "", err
	}
	return p.String() + plan.RenderTrace(trace), nil
}

// ExplainAnalyze parses, optimizes (honoring the session) and executes
// sql, returning the rendered per-operator estimated-vs-actual view plus
// the rewrite-pass trace and the execution result.
func (e *Engine) ExplainAnalyze(ctx context.Context, sess *Session, sql string) (string, *Result, error) {
	q, err := sqlx.Parse(sql, e.Cat)
	if err != nil {
		return "", nil, err
	}
	p, trace, err := e.optimizeTrace(ctx, sess, q)
	if err != nil {
		return "", nil, err
	}
	res, pt, err := e.Ex.RunAnalyze(ctx, q, p)
	if err != nil {
		return "", nil, err
	}
	out := plan.RenderAnalyze(p, func(n *plan.Node) (plan.Actuals, bool) {
		t, ok := pt.ByNode(n)
		if !ok {
			return plan.Actuals{}, false
		}
		return plan.Actuals{
			Rows:          float64(t.RowsOut),
			Work:          t.WorkUnits(),
			Wall:          t.Wall,
			Batches:       t.Batches,
			BlocksTotal:   t.BlocksTotal,
			BlocksSkipped: t.BlocksSkipped,
			Probed:        t.Probed,
		}, true
	})
	return out + plan.RenderTrace(trace), &Result{Count: res.Count, Value: res.Value, Latency: res.Stats.WorkUnits, Plan: p}, nil
}

// ExecuteSQL parses sql against the engine's catalog and executes it like
// ExecuteQuery.
func (e *Engine) ExecuteSQL(ctx context.Context, sess *Session, sql string) (*Result, error) {
	q, err := sqlx.Parse(sql, e.Cat)
	if err != nil {
		return nil, err
	}
	return e.ExecuteQuery(ctx, sess, q)
}

// ExecuteQuery implements DB. Planning and execution both run under ctx:
// a deadline bounds the whole query, and cancellation mid-scan or
// mid-probe aborts with ctx.Err(). The Result's Plan is annotated with
// its true cardinalities (exec's RunAnalyze).
func (e *Engine) ExecuteQuery(ctx context.Context, sess *Session, q *query.Query) (*Result, error) {
	p, err := e.optimize(ctx, sess, q)
	if err != nil {
		return nil, err
	}
	res, _, err := e.Ex.RunAnalyze(ctx, q, p)
	if err != nil {
		return nil, err
	}
	return &Result{Count: res.Count, Value: res.Value, Latency: res.Stats.WorkUnits, Plan: p}, nil
}
