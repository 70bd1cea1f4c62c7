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
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/guard"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/sqlx"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// CacheSize caps the plan cache (default 512 plans) and, separately,
	// the statement cache of parsed ad-hoc texts.
	CacheSize int
	// InvalidateQError is the per-sub-plan q-error beyond which a cached
	// plan's estimates count as drifted and the entry is invalidated
	// (default 4; set negative to disable invalidation).
	InvalidateQError float64
	// TenantSlots is the per-tenant concurrent-execution limit
	// (default 16).
	TenantSlots int
	// TenantQueue bounds how many requests may wait per tenant once the
	// slots are full; arrivals beyond it are rejected with ErrOverloaded
	// (default 64).
	TenantQueue int
	// Breaker configures the per-tenant circuit breaker. A tenant whose
	// requests keep failing trips its breaker and is shed with ErrShed
	// until the cooldown elapses.
	Breaker guard.BreakerConfig
	// FeedbackCap bounds the harvested-cardinality store used to replan
	// invalidated entries (default 8192 sub-query keys).
	FeedbackCap int
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 512
	}
	if c.InvalidateQError == 0 {
		c.InvalidateQError = 4
	}
	if c.TenantSlots <= 0 {
		c.TenantSlots = 16
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 64
	}
	if c.FeedbackCap <= 0 {
		c.FeedbackCap = 8192
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

// NumParams reports the statement's placeholder count.
func (st *Stmt) NumParams() int { return st.e.Load().st.NumParams() }

// SQL returns the template rendered back to SQL with ? placeholders.
func (st *Stmt) SQL() string { return st.e.Load().st.SQL() }

// current returns the statement's template and plan-cache key, prepared
// again from the source text if the template is stale against s's
// catalog. A new template may have a new shape key, and so a plan-cache
// entry of its own.
func (st *Stmt) current(s *Server) (*stmtEntry, error) {
	if e := st.e.Load(); e.st.Current(s.cat) {
		return e, nil
	}
	p, err := sqlx.Prepare(st.src, s.cat)
	if err != nil {
		return nil, err
	}
	e := &stmtEntry{st: p, key: s.cacheKey(p.ShapeKey())}
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

	mu       sync.Mutex
	feedback map[string]int32 // sub-query key -> index of its harvested true card in cards
	cards    []float64
	// hashes holds the query.JoinGraph.KeyHash of every key in feedback:
	// the overlay builds a mask's key only when its hash is here.
	hashes  map[uint64]struct{}
	keyBuf  []byte   // the key buffer of a graph's harvest and overlay
	hashBuf []uint64 // the overlay's key hashes, one per mask

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
		cat:      cat,
		ex:       ex,
		cfg:      cfg,
		cache:    NewPlanCache(cfg.CacheSize),
		stmts:    newStmtCache(cfg.CacheSize),
		adm:      newAdmission(cfg.TenantSlots, cfg.TenantQueue, cfg.Breaker),
		feedback: make(map[string]int32),
		hashes:   make(map[uint64]struct{}),
	}
	s.opt = o.WithEstimator(&feedbackEstimator{s: s, base: o.Est})
	return s
}

// feedbackEstimator overlays harvested true cardinalities on the server's
// base estimator, so a replan after invalidation uses execution truth
// where it is known (PilotScope's PushCards, wired into serving).
type feedbackEstimator struct {
	s    *Server
	base opt.CardEstimator
}

// Estimate implements opt.CardEstimator.
func (fe *feedbackEstimator) Estimate(q *query.Query) float64 {
	var c float64
	fe.s.mu.Lock()
	i, ok := fe.s.feedback[q.Key()]
	if ok {
		c = fe.s.cards[i]
	}
	fe.s.mu.Unlock()
	if ok {
		return metrics.ClampCard(c)
	}
	return metrics.ClampCard(fe.base.Estimate(q))
}

// EstimateGraph implements opt.GraphEstimator when the base estimator
// answers the graph, and otherwise reports false: the base fills cards,
// then every mask whose key the store holds takes its truth, all under
// one hold of s.mu. Only a mask whose key hash is in s.hashes has its key
// written into s.keyBuf and looked up.
func (fe *feedbackEstimator) EstimateGraph(g *query.JoinGraph, cards []float64) bool {
	if ge, ok := fe.base.(opt.GraphEstimator); !ok || !ge.EstimateGraph(g, cards) {
		return false
	}
	s := fe.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hashBuf = slices.Grow(s.hashBuf[:0], len(cards))[:len(cards)]
	g.KeyHashes(s.hashBuf)
	for m, c := range cards {
		if _, ok := s.hashes[s.hashBuf[m]]; ok {
			s.keyBuf = g.AppendKey(s.keyBuf[:0], uint64(m))
			if i, ok := s.feedback[string(s.keyBuf)]; ok {
				c = s.cards[i]
			}
		}
		cards[m] = metrics.ClampCard(c)
	}
	return true
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
func (s *Server) Query(ctx context.Context, tenant, sql string) (*Result, error) {
	if e, ok := s.stmts.get(sql, s.cat); ok {
		return s.run(ctx, tenant, e.st.Query(), e.key, nil, nil)
	}
	st, g, err := sqlx.ParseStatement(sql, s.cat)
	if err != nil {
		return nil, err
	}
	e := stmtEntry{st: st, key: s.cacheKey(st.ShapeKey())}
	res, err := s.run(ctx, tenant, st.Query(), e.key, g, nil)
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
	st.e.Store(&stmtEntry{st: p, key: s.cacheKey(p.ShapeKey())})
	return st, nil
}

// Exec binds args into stmt and executes it for tenant. Plans are cached
// on the statement's shape key: the first execution plans for its binding
// and caches that plan generalized to the template, whose scan leaves
// bind each execution's predicates when they open. Feedback-driven
// invalidation replans when that generic plan stops fitting the observed
// cardinalities. The binding's join graph is the template's, rebound, so
// harvesting its feedback builds no graph.
func (s *Server) Exec(ctx context.Context, tenant string, stmt *Stmt, args ...any) (*Result, error) {
	e, err := stmt.current(s)
	if err != nil {
		return nil, err
	}
	q, g, err := e.st.BindGraph(args...)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, tenant, q, e.key, g, e.st.Query())
}

// run is the shared serving path: admit, fetch-or-plan, execute, harvest
// feedback, observe drift. key is the plan-cache key (cacheKey). q is
// only read. A prepared statement passes g, its binding's join graph, and
// tmpl, its template; a parsed text its parse's graph; a statement-cache
// hit neither, and its miss builds the one graph it is planned and
// harvested from. The observer gets the same graph; a statement-cache
// hit builds one only when an observer is installed. A hit runs the
// cached plan itself, shared with concurrent requests: nothing here
// writes to a plan, and harvest, drift check and observer read the run's
// record instead.
func (s *Server) run(ctx context.Context, tenant string, q *query.Query, key string, g *query.JoinGraph, tmpl *query.Query) (*Result, error) {
	release, br, err := s.adm.acquire(ctx, tenant)
	if err != nil {
		return nil, err
	}
	defer release()

	planStart := time.Now()
	p, ent, gen := s.cache.checkout(key)
	cached := p != nil
	if tmpl != nil {
		ent = nil // each binding has its own sub-query keys
	}
	if p == nil {
		if g == nil {
			g = query.NewJoinGraph(q) // planned and harvested: one graph per miss
		}
		p, err = s.opt.OptimizeGraphCtx(ctx, g)
		if err != nil {
			br.Failure()
			return nil, err
		}
		if tmpl != nil {
			p = p.Generalize(tmpl)
		}
		s.coldPlans.Add(1)
		s.cache.put(key, p, gen)
	}
	planDur := time.Since(planStart)

	res, err := s.ex.RunCtx(ctx, q, p)
	if err != nil {
		br.Failure()
		return nil, err
	}
	br.Success()

	s.harvest(q, g, p, res.Cards, ent)
	if cached {
		s.cache.observe(key, res.Cards, s.cfg.InvalidateQError)
	}
	if obs := s.obs.Load(); obs != nil && *obs != nil {
		if g == nil { // a statement-cache hit: no graph was needed so far
			g = query.NewJoinGraph(q)
		}
		(*obs).ObserveRun(g, p, res.Cards)
	}
	return &Result{Count: res.Count, Value: res.Value, Latency: res.Stats.WorkUnits, Cached: cached, Plan: planDur}, nil
}

// harvest merges the record cards of a run of p into the feedback store
// in plan pre-order, every key every time (ResetFeedback may have
// intervened). ent is the entry p was checked out of on an ad-hoc hit,
// else nil. Its key is a function of q.Key(), so every pre-order
// position's sub-query key repeats on every hit: the first hit memoizes
// opt.HarvestCards' labels (from g, or a graph built for a statement-cache
// hit), later hits skip the graph. A miss's or a prepared binding's keys
// come from g through s.keyBuf: only a key new to the store allocates a
// string or is hashed.
func (s *Server) harvest(q *query.Query, g *query.JoinGraph, p *plan.Node, cards []float64, ent *cacheEntry) {
	if ent == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		i := 0
		p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
			s.keyBuf = g.AppendKey(s.keyBuf[:0], mask)
			if absorb(s, s.keyBuf, cards[i]) {
				s.hashes[g.KeyHash(mask)] = struct{}{}
			}
			i++
		})
		return
	}
	var labels []opt.CardLabel
	if memo := ent.harvest.Load(); memo != nil {
		labels = *memo
	} else {
		if g == nil {
			g = query.NewJoinGraph(q)
		}
		memo := opt.HarvestCards(g, p, cards)
		ent.harvest.Store(&memo)
		labels = memo
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, l := range labels { // memoized cards are stale: read the record's
		if absorb(s, l.Key, cards[i]) {
			s.hashes[l.Hash] = struct{}{}
		}
	}
}

// absorb writes one harvested truth into the feedback store under s.mu:
// an existing key always updates, a new key lands only under FeedbackCap
// (bounded memory, no eviction churn). Callers write in plan pre-order,
// so which keys a nearly full store admits is the same on every run. It
// reports whether key is new, for the caller to add its hash to s.hashes.
func absorb[K string | []byte](s *Server, key K, card float64) (added bool) {
	if i, ok := s.feedback[string(key)]; ok {
		s.cards[i] = card
	} else if len(s.cards) < s.cfg.FeedbackCap {
		s.feedback[string(key)] = int32(len(s.cards))
		s.cards = append(s.cards, card)
		return true
	}
	return false
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
func (s *Server) ResetFeedback() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.feedback)
	s.feedback = make(map[string]int32)
	s.hashes = make(map[uint64]struct{})
	s.cards = s.cards[:0]
	return n
}

// FeedbackLen reports how many sub-query truths the feedback store holds.
func (s *Server) FeedbackLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.feedback)
}

// Invalidate drops the cached plan for the canonical key of sql,
// reporting whether one was cached. Prepared-statement entries can be
// dropped by passing the template (placeholders included).
func (s *Server) Invalidate(sql string) (bool, error) {
	p, err := sqlx.Prepare(sql, s.cat)
	if err != nil {
		return false, err
	}
	return s.cache.Invalidate(s.cacheKey(p.ShapeKey())), nil
}

// cacheKey derives the plan-cache key from the canonical query key (or
// statement shape key): the key itself when the optimizer plans
// single-node trees, the key with the shard fan-out folded in otherwise —
// sharded and unsharded plans for the same SQL must never collide in the
// cache.
func (s *Server) cacheKey(key string) string {
	if s.opt.Shards < 2 {
		return key
	}
	var k query.KeyBuilder
	k.Raw("shards").Atom(strconv.Itoa(s.opt.Shards)).Raw("|").Append(key)
	return k.String()
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() Stats {
	rejected, shed := s.adm.stats()
	hits, misses := s.stmts.stats()
	return Stats{Cache: s.cache.Stats(), ColdPlans: s.coldPlans.Load(), Rejected: rejected, Shed: shed, StmtHits: hits, StmtMisses: misses}
}
