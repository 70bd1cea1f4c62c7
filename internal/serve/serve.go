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
	keyBuf  []byte       // the key buffer of a graph's harvest and overlay
	hashBuf []uint64     // the overlay's key hashes, one per mask
	argBuf  []data.Value // the placeholder values of the binding a harvest looks up
	fbGen   uint64       // bumped by ResetFeedback: harvest records of an older one are stale

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
		fbGen:    1,
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

// EstimateGraph implements opt.GraphEstimator: the base answers the
// graph (opt.EstimateGraph), then every mask whose key the store holds
// takes its truth, all under one hold of s.mu. Only a mask whose key hash
// is in s.hashes has its key written into s.keyBuf and looked up.
func (fe *feedbackEstimator) EstimateGraph(ctx context.Context, g *query.JoinGraph, cards []float64) error {
	if err := opt.EstimateGraph(ctx, fe.base, g, cards); err != nil {
		return err
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
	return nil
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
	e := stmtEntry{st: st, key: s.cacheKey(st.ShapeKey())}
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
	st.e.Store(&stmtEntry{st: p, key: s.cacheKey(p.ShapeKey())})
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
// run binds in it. key is the plan-cache key (cacheKey). q is only read.
// A prepared request passes st, its statement, q being a Bind of it; a
// parsed text passes its parse's graph g; a statement-cache hit neither.
// The join graph is built only when a request needs it: to plan a miss,
// to harvest a binding the entry holds no current record of (harvest),
// or for an installed observer, which gets the same graph. A hit runs
// the cached plan itself, shared with concurrent requests, under the
// entry's binding: nothing here writes to a plan, and harvest, drift
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
// slots (Server.record). A hit whose record is current writes by index,
// building no graph and rendering no key: slots never move and a full
// store stays full until ResetFeedback, which bumps fbGen, so that is
// what absorb would do. A miss, and a binding's first hit or its first
// after ResetFeedback, write each node's key from g through s.keyBuf, a
// hit recording the slots: only a key new to the store allocates a
// string or is hashed.
func (s *Server) harvest(q *query.Query, g *query.JoinGraph, st *sqlx.Prepared, p *plan.Node, cards []float64, ent *cacheEntry) *query.JoinGraph {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rec *harvestRecord
	if ent != nil {
		if rec = s.record(ent.hits(), st, q); rec.gen == s.fbGen {
			for i, slot := range rec.slots {
				if slot >= 0 {
					s.cards[slot] = cards[i]
				}
			}
			return g
		}
		rec.slots, rec.gen = rec.slots[:0], s.fbGen
	}
	if g == nil {
		g = graphOf(q, st)
	}
	i := 0
	p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) {
		s.keyBuf = g.AppendKey(s.keyBuf[:0], mask)
		slot, added := absorb(s, s.keyBuf, cards[i])
		if added {
			s.hashes[g.KeyHash(mask)] = struct{}{}
		}
		if rec != nil {
			rec.slots = append(rec.slots, slot)
		}
		i++
	})
	return g
}

// record returns m's record of q, a binding of st (nil: ad hoc), under
// s.mu, claiming one if there is none: a new one while fewer than
// maxRecords exist, else the oldest, its storage reused. A claimed
// record's gen is 0, no store's generation.
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
	r.st, r.args, r.gen = st, append(r.args[:0], s.argBuf...), 0
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

// absorb writes one harvested truth into the feedback store under s.mu:
// an existing key always updates, a new key lands only under FeedbackCap
// (bounded memory, no eviction churn). Callers write in plan pre-order,
// so which keys a nearly full store admits is the same on every run. It
// returns key's slot in s.cards, -1 if it was not admitted, and whether
// key is new, for the caller to add its hash to s.hashes. Only
// ResetFeedback moves or frees a slot, and a full store stays full until
// then.
func absorb[K string | []byte](s *Server, key K, card float64) (slot int32, added bool) {
	if i, ok := s.feedback[string(key)]; ok {
		s.cards[i] = card
		return i, false
	}
	if len(s.cards) >= s.cfg.FeedbackCap {
		return -1, false
	}
	slot = int32(len(s.cards))
	s.feedback[string(key)] = slot
	s.cards = append(s.cards, card)
	return slot, true
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
	s.fbGen++
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
