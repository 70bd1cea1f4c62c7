// Package serve is the session-oriented serving layer over the workbench
// engine: the piece the tutorial's deployment section says every learned
// optimizer needs before it can face real traffic. It canonicalizes SQL
// into a collision-safe cache key (the same length-prefixed encoding
// query.Key and plan.Fingerprint share), caches optimized plans across
// requests, supports ?-parameterized prepared statements that skip both
// parsing and planning on the hot path, invalidates cached plans when
// cardinality feedback shows their estimates have drifted, and applies
// per-tenant admission control backed by guard circuit breakers so one
// misbehaving tenant cannot starve the rest.
package serve

import (
	"context"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/feedback"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// InvalidateQError is the per-sub-plan q-error beyond which a cached
	// plan's estimates count as drifted and the entry is invalidated
	// (0 selects the default of 4; any other value ≤ 1 disables
	// invalidation).
	InvalidateQError float64
}

func (c Config) withDefaults() Config {
	if c.InvalidateQError == 0 {
		c.InvalidateQError = 4
	}
	return c
}

// Result is what a serving-layer client gets back.
type Result struct {
	Count   int64         // result cardinality
	Value   float64       // the query's aggregate (equals Count for COUNT(*))
	Latency float64       // deterministic work units spent executing
	Cached  bool          // plan came from the cache (no optimizer call)
	Plan    time.Duration // wall-clock spent obtaining the plan (lookup or optimize)
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Cache     CacheStats
	ColdPlans int64 // optimizer invocations (cache misses + replans)
	Rejected  int64 // admission rejections (queue full)
	Shed      int64 // breaker-shed requests
	// StmtHits and StmtMisses count ad-hoc requests whose text was, and
	// was not, served parsed from the statement cache.
	StmtHits, StmtMisses int64
}

// Stmt is a server-side prepared statement: parse once, Exec per binding.
// Obtain one from Server.Prepare and Exec it on that server; safe for
// concurrent Exec calls. The statement keeps its source text and is
// prepared again when a catalog change makes its template stale
// (sqlx.Prepared.Current).
type Stmt struct {
	src string
	// e is the template with its plan-cache key, replaced together.
	e atomic.Pointer[stmtEntry]
}

// current returns the statement's template and plan-cache key, prepared
// again from the source text if the template is stale against cat, the
// request's Pin of s's catalog. A new template may have a new shape key,
// and so a plan-cache entry of its own.
func (st *Stmt) current(s *Server, cat *data.Catalog) (*stmtEntry, error) {
	if e := st.e.Load(); e.st.Current(cat) {
		return e, nil
	}
	p, err := sqlx.Prepare(st.src, cat)
	if err != nil {
		return nil, err
	}
	e := &stmtEntry{st: p, key: p.ShapeKey()}
	st.e.Store(e)
	return e, nil
}

// ExecObserver receives every successful run right after the server
// harvests feedback from it: the request's join graph g, the plan and
// the run's record, cards[i] for p's i-th node in pre-order
// (exec.Result.Cards). The adaptation loop (internal/adapt) implements
// this to feed its drift detector and label collector without the server
// importing adapt. g and p are shared, so ObserveRun must only read them.
type ExecObserver interface {
	ObserveRun(g *query.JoinGraph, p *plan.Node, cards []float64)
}

// Server serves queries over one catalog with plan caching,
// feedback-driven invalidation and per-tenant admission control. Safe for
// concurrent use.
type Server struct {
	cat *data.Catalog
	// opt is the caller's optimizer with the feedback overlay as its
	// estimator, built once by New.
	opt   *opt.Optimizer
	ex    *exec.Executor
	cfg   Config
	cache *PlanCache
	stmts *stmtCache
	adm   *admission

	// fb holds the harvested truths. Its lock also guards the entries'
	// harvest records and argBuf, the placeholder values of the binding
	// a harvest looks up (Server.record).
	fb     *feedback.Store
	argBuf []data.Value

	coldPlans atomic.Int64
	obs       atomic.Pointer[ExecObserver] // nil or pointing at nil: none
}

// New assembles a server over cat using o to plan and ex to execute. The
// server plans with a copy of o taken here, so later changes to o are not
// seen. The executor keeps the buffer pool it was built with: the
// steady-state executions of cached plans recycle that one warm set of
// buffers across all tenants.
func New(cat *data.Catalog, o *opt.Optimizer, ex *exec.Executor, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cat:   cat,
		ex:    ex,
		cfg:   cfg,
		cache: NewPlanCache(cacheSize),
		stmts: newStmtCache(),
		adm:   newAdmission(),
		fb:    feedback.NewStore(),
	}
	// A replan after invalidation uses execution truth where it is known
	// (PilotScope's PushCards, wired into serving).
	s.opt = o.WithEstimator(&feedback.Overlay{Base: o.Est, Store: s.fb})
	return s
}

// Query parses, plans (or reuses a cached plan) and executes sql on
// behalf of tenant. The canonical query key — not the SQL text — is the
// cache key, so formatting, alias order and literal spelling variants of
// the same query share one plan.
//
// A text whose request hit the plan cache is kept parsed, with its key,
// in the statement cache, and later requests for it skip the parse while
// the catalog still resolves it the same way. The cached query is shared
// by every such request, concurrent ones included: nothing on the
// serving path may mutate it. A parsed text is planned and harvested from
// the join graph its parse built; the statement cache keeps no graph.
//
// A request reads one state of the catalog, its Pin: the parse (or the
// statement cache's check) and the plan's binding agree on every table,
// so a concurrent Catalog.Add cannot run literals coded for one table
// against another.
func (s *Server) Query(ctx context.Context, tenant, sql string) (*Result, error) {
	cat := s.cat.Pin()
	if e, ok := s.stmts.get(sql, cat); ok {
		return s.run(ctx, cat, tenant, e.st.Query(), e.key, nil, nil)
	}
	st, g, err := sqlx.ParseStatement(sql, cat)
	if err != nil {
		return nil, err
	}
	e := stmtEntry{st: st, key: st.ShapeKey()}
	res, err := s.run(ctx, cat, tenant, st.Query(), e.key, g, nil)
	if err == nil && res.Cached {
		s.cache.adoptKey(e.key)
		s.stmts.put(sql, e)
	}
	return res, err
}

// Prepare parses and validates a ?-parameterized statement template.
// Prepare is admission-free: it does no planning or execution.
func (s *Server) Prepare(sql string) (*Stmt, error) {
	p, err := sqlx.Prepare(sql, s.cat)
	if err != nil {
		return nil, err
	}
	st := &Stmt{src: sql}
	st.e.Store(&stmtEntry{st: p, key: p.ShapeKey()})
	return st, nil
}

// Exec binds args into stmt and executes it for tenant. Plans are cached
// on the statement's shape key: the first execution plans for its binding
// and caches that plan generalized to the template, whose scan leaves
// bind each execution's predicates when they open. Feedback-driven
// invalidation replans when that generic plan stops fitting the observed
// cardinalities. A binding's join graph is the template's, rebound, and
// only a request that needs it builds it (run).
func (s *Server) Exec(ctx context.Context, tenant string, stmt *Stmt, args ...any) (*Result, error) {
	cat := s.cat.Pin()
	e, err := stmt.current(s, cat)
	if err != nil {
		return nil, err
	}
	q, err := e.st.Bind(args...)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, cat, tenant, q, e.key, nil, e.st)
}

// run is the shared serving path: admit, fetch-or-plan, execute, harvest
// feedback, observe drift. cat is the Pin q was parsed against, and the
// run binds in it. key is the plan-cache key, the statement's shape key.
// q is only read. A prepared request passes st, its statement, q being a
// Bind of it; a parsed text passes its parse's graph g; a statement-cache
// hit neither. The join graph is built only when a request needs it: to
// plan a miss, to harvest a binding the entry holds no current record of
// (harvest), or for an installed observer, which gets the same graph. A
// hit runs the cached plan itself, shared with concurrent requests, under
// the entry's binding: nothing here writes to a plan, and harvest, drift
// check and observer read the run's record instead.
func (s *Server) run(ctx context.Context, cat *data.Catalog, tenant string, q *query.Query, key string, g *query.JoinGraph, st *sqlx.Prepared) (*Result, error) {
	release, br, err := s.adm.acquire(ctx, tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	planStart := time.Now()
	p, ent, gen := s.cache.checkout(key)
	cached := p != nil
	if p == nil {
		if g == nil {
			g = graphOf(q, st) // planned and harvested: one graph per miss
		}
		p, err = s.opt.OptimizeGraphCtx(ctx, g)
		if err != nil {
			br.Failure()
			return nil, err
		}
		if st != nil {
			p = p.Generalize(st.Query())
		}
		s.coldPlans.Add(1)
		s.cache.put(key, p, gen)
	}
	planDur := time.Since(planStart)

	res, err := s.ex.RunBound(ctx, cat, q, p, s.binding(cat, ent, q))
	if err != nil {
		br.Failure()
		return nil, err
	}
	br.Success()

	if cached {
		s.cache.observe(ent, res.Cards, s.cfg.InvalidateQError)
	}
	g = s.harvest(q, g, st, p, res.Cards, ent)
	if obs := s.obs.Load(); obs != nil && *obs != nil {
		if g == nil {
			g = graphOf(q, st)
		}
		(*obs).ObserveRun(g, p, res.Cards)
	}
	return &Result{Count: res.Count, Value: res.Value, Latency: res.Stats.WorkUnits, Cached: cached, Plan: planDur}, nil
}

// graphOf builds the join graph of q: for a binding of st the template's
// graph rebound, else from scratch.
func graphOf(q *query.Query, st *sqlx.Prepared) *query.JoinGraph {
	if st != nil {
		return st.Graph(q)
	}
	return query.NewJoinGraph(q)
}

// binding returns the resolution of ent's plan for q in cat: the entry's
// memo, built on its first hit and again on a hit that finds it of
// another catalog generation or another aggregate (the plan-cache key
// leaves the aggregate out). Nil on a miss or when the plan does not
// bind, and the run resolves (and reports) it itself.
func (s *Server) binding(cat *data.Catalog, ent *cacheEntry, q *query.Query) *exec.Binding {
	if ent == nil {
		return nil
	}
	m := ent.hits()
	b := m.bind.Load()
	if !b.Current(cat, q) {
		var err error
		if b, err = s.ex.Bind(cat, q, ent.p); err != nil {
			return nil
		}
		m.bind.Store(b)
	}
	return b
}

// harvest merges the record cards of a run of p into the feedback store
// in plan pre-order, every key every time, and returns q's join graph: g,
// or the one it built, or nil when it needed none. ent is the entry p
// was checked out of on a hit, else nil. A binding — q, of statement st
// or ad hoc — fixes the sub-query key of every pre-order position of its
// entry's plan, so the entry keeps a record of each binding's store
// slots (Server.record). A hit whose record is current writes by slot,
// building no graph and rendering no key (feedback.Store.Write). A miss,
// and a binding's first hit or its first after ResetFeedback, harvest
// through g, a hit recording the slots. The record lookup and the writes
// take one hold of the store's lock.
func (s *Server) harvest(q *query.Query, g *query.JoinGraph, st *sqlx.Prepared, p *plan.Node, cards []float64, ent *cacheEntry) *query.JoinGraph {
	s.fb.Lock()
	defer s.fb.Unlock()
	var rec *feedback.Record
	if ent != nil {
		if rec = &s.record(ent.hits(), st, q).rec; s.fb.Current(rec) {
			s.fb.Write(rec, cards)
			return g
		}
	}
	if g == nil {
		g = graphOf(q, st)
	}
	s.fb.Harvest(g, p, cards, rec)
	return g
}

// record returns m's record of q, a binding of st (nil: ad hoc), under
// the feedback store's lock, claiming one if there is none: a new one
// while fewer than maxRecords exist, else the oldest, its storage reused.
// A claimed record is stale.
func (s *Server) record(m *hitMemo, st *sqlx.Prepared, q *query.Query) *harvestRecord {
	s.argBuf = boundArgs(s.argBuf[:0], st, q)
	for i := range m.recs {
		if r := &m.recs[i]; r.st == st && slices.EqualFunc(r.args, s.argBuf, sameValue) {
			return r
		}
	}
	var r *harvestRecord
	if len(m.recs) < maxRecords {
		m.recs = append(m.recs, harvestRecord{})
		r = &m.recs[len(m.recs)-1]
	} else {
		r = &m.recs[m.next]
		m.next = (m.next + 1) % maxRecords
	}
	r.st, r.args = st, append(r.args[:0], s.argBuf...)
	r.rec.Invalidate()
	return r
}

// boundArgs appends to dst the values q, a Bind of st, bound to st's
// placeholders, in predicate order.
func boundArgs(dst []data.Value, st *sqlx.Prepared, q *query.Query) []data.Value {
	if st == nil {
		return dst
	}
	for i, p := range st.Query().Preds {
		if p.Param != 0 {
			dst = append(dst, q.Preds[i].Val)
		}
		if p.Param2 != 0 {
			dst = append(dst, q.Preds[i].Val2)
		}
	}
	return dst
}

// sameValue compares floats by their bits: equal bits render one key.
func sameValue(x, y data.Value) bool {
	return x.K == y.K && x.I == y.I && math.Float64bits(x.F) == math.Float64bits(y.F)
}

// SetObserver installs (or, with nil, removes) the execution observer.
// The observer sees every successful execution after feedback harvest.
func (s *Server) SetObserver(o ExecObserver) { s.obs.Store(&o) }

// FlushPlans drops every cached plan, returning how many were dropped.
// Called on estimator hot-swap: cached plans embody the replaced model's
// estimates and must not outlive it.
func (s *Server) FlushPlans() int { return s.cache.Clear() }

// ResetFeedback clears the harvested-cardinality store, returning how many
// keys were dropped. Called on hot-swap and rollback: feedback harvested
// from plans the old model chose describes sub-plans the new model may
// never produce, and after catalog drift the stored truths themselves are
// stale — keeping them would poison the first replans of the new regime.
func (s *Server) ResetFeedback() int { return s.fb.Reset() }

// FeedbackLen reports how many sub-query truths the feedback store holds.
func (s *Server) FeedbackLen() int { return s.fb.Len() }

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	rejected, shed := s.adm.stats()
	hits, misses := s.stmts.stats()
	return Stats{Cache: s.cache.Stats(), ColdPlans: s.coldPlans.Load(), Rejected: rejected, Shed: shed, StmtHits: hits, StmtMisses: misses}
}
