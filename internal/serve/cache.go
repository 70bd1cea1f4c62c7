package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lqo/internal/data"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/plan"
	"lqo/internal/sqlx"
)

// PlanCache is an LRU cache of optimized physical plans keyed by the
// collision-safe canonical query key (query.Key for ad-hoc SQL,
// sqlx.Prepared.ShapeKey for prepared statements — the two key spaces
// cannot collide because placeholder markers sit outside length-prefixed
// atoms). Entries carry the estimated cardinality of every sub-plan at
// optimization time; a run's record of true cardinalities is replayed
// against them, position by position, and an entry whose estimates have
// drifted past a q-error threshold is evicted, forcing a replan with
// fresh feedback — the Eraser-style "is the cached plan still behaving?"
// gate.
//
// A stored plan is immutable: the server runs the cached node itself
// (checkout copies nothing), from any number of goroutines at once.
// Get, Put and Observe copy and read annotated trees for
// benchmark/trace.go. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   CacheStats
	gen     atomic.Uint64 // bumped by Clear, under mu: a plan made across it is not stored
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64 // entries evicted by feedback drift
	Evictions     int64 // entries evicted by capacity
}

// A cacheEntry is immutable but for its memo and, under the cache's lock,
// which copy of its key bytes it holds (adoptKey). Put over a live key
// installs a new entry, so the memo dies with the plan.
type cacheEntry struct {
	key  string
	p    *plan.Node              // shared by every run; never written
	memo atomic.Pointer[hitMemo] // nil until the first hit
}

// hitMemo is what the hits of an entry resolve once rather than per
// request. A miss makes none: most cold plans are never hit.
type hitMemo struct {
	// bind is the plan's catalog resolution, built again by a hit at
	// another catalog generation or with another aggregate
	// (Server.binding).
	bind atomic.Pointer[exec.Binding]
	// recs are the harvests of the bindings hits ran, at most
	// maxRecords, the oldest replaced first (next); under the server's
	// feedback lock (Server.record).
	recs []harvestRecord
	next int
}

// maxRecords bounds an entry's harvest records. An ad-hoc entry needs
// one; a prepared entry keeps the last bindings it ran, of every
// statement of its shape: statements that differ only in literals share
// it (hit_prepared seed 702 puts 3 statements of 4 bindings on one).
const maxRecords = 16

// A harvestRecord is where one binding's run of an entry's plan writes
// its truths: the feedback-store slot of every plan node in pre-order
// (-1: not admitted), valid while gen is the store's generation. A
// binding is its prepared statement and the values its placeholders
// bound; ad hoc (st nil) the entry's key alone fixes every sub-query key.
type harvestRecord struct {
	st    *sqlx.Prepared
	args  []data.Value
	slots []int32
	gen   uint64
}

// hits returns the entry's memo, making it on the first hit.
func (e *cacheEntry) hits() *hitMemo {
	if m := e.memo.Load(); m != nil {
		return m
	}
	e.memo.CompareAndSwap(nil, &hitMemo{})
	return e.memo.Load()
}

// cacheSize caps a server's plan cache and, separately, its statement
// cache of parsed ad-hoc texts.
const cacheSize = 512

// NewPlanCache returns a cache holding at most capacity plans
// (capacity <= 0 selects cacheSize).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = cacheSize
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns a private copy of the cached plan for key, or nil on miss.
// The copy shares the cached Preds and Cond slices (plan.CloneNodes). It
// stays for benchmark/trace.go, which rebinds and annotates the copy.
func (c *PlanCache) Get(key string) *plan.Node {
	p, _, _ := c.checkout(key)
	return p.CloneNodes()
}

// checkout returns the cached plan for key itself, which the caller must
// not write to, and its entry, nil on miss, and the cache's generation:
// the plan a miss makes is put under it.
func (c *PlanCache) checkout(key string) (*plan.Node, *cacheEntry, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, nil, c.gen.Load()
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.p, ent, c.gen.Load()
}

// Put stores an optimized plan under key; its per-node estimated
// cardinalities are what later drift checks judge. The cache keeps its
// own clone.
func (c *PlanCache) Put(key string, p *plan.Node) { c.put(key, p.Clone(), c.gen.Load()) }

// put is Put storing p itself, which the caller never writes to again,
// planned after a checkout of generation gen. If Clear ran since, p may
// embody the estimator the Clear retired, and it is dropped.
func (c *PlanCache) put(key string, p *plan.Node, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen.Load() {
		return
	}
	ent := &cacheEntry{key: key, p: p}
	if el, ok := c.entries[key]; ok {
		el.Value = ent
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(ent)
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
}

// Observe is observe fed from a TrueCard-annotated copy of key's cached
// plan (Get, then RunAnalyze). It stays for benchmark/trace.go.
func (c *PlanCache) Observe(key string, executed *plan.Node, maxQErr float64) bool {
	c.mu.Lock()
	el, ok := c.entries[key]
	var ent *cacheEntry
	if ok {
		ent = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	return ok && c.observe(ent, executed.TrueCards(), maxQErr)
}

// observe replays the record of a run of ent's plan against it: cards[i]
// is the true cardinality of the plan's i-th node in pre-order
// (exec.Result.Cards). When any sub-plan's estimate drifts beyond maxQErr
// (q-error of estimated vs true cardinality), the entry is invalidated
// if the cache still holds it, and observe reports that — the signal
// that the next request should replan with feedback. maxQErr <= 1
// disables invalidation. The plan is immutable, so only the eviction
// takes the lock.
func (c *PlanCache) observe(ent *cacheEntry, cards []float64, maxQErr float64) bool {
	if maxQErr <= 1 {
		return false
	}
	i, drifted := 0, false
	ent.p.Walk(func(n *plan.Node) {
		if i < len(cards) && metrics.QError(n.EstCard, cards[i]) > maxQErr {
			drifted = true
		}
		i++
	})
	// On a shape mismatch the record is not of this entry's plan (stale
	// feedback after a replan); drop it rather than misjudge.
	if i != len(cards) || !drifted {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[ent.key]
	if !ok || el.Value != ent {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, ent.key)
	c.stats.Invalidations++
	return true
}

// Clear drops every cached plan, returning how many were dropped. The
// adaptation loop calls this through Server.FlushPlans when a new
// estimator is published: every cached plan embodies the old model's
// estimates, so keeping them would serve stale join orders indefinitely.
// Counted as invalidations (the plans were dropped for model reasons,
// not capacity). A plan made by a miss checked out before the Clear is
// not stored when it arrives.
func (c *PlanCache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1)
	n := len(c.entries)
	c.entries = make(map[string]*list.Element)
	c.order.Init()
	c.stats.Invalidations += int64(n)
	return n
}

// adoptKey makes the entry stored under key, if there is one, hold key's
// bytes instead of its own equal copy, so a caller that keeps key costs
// no second copy.
func (c *PlanCache) adoptKey(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).key = key
		delete(c.entries, key)
		c.entries[key] = el
	}
}

// Stats returns a snapshot of the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
