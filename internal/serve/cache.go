package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
)

// PlanCache is an LRU cache of optimized physical plans keyed by the
// collision-safe canonical query key (query.Key for ad-hoc SQL,
// sqlx.Prepared.ShapeKey for prepared statements — the two key spaces
// cannot collide because placeholder markers sit outside length-prefixed
// atoms). Entries carry the estimated cardinality of every sub-plan at
// optimization time; Observe replays an executed tree's TrueCards against
// that snapshot, position by position, and an entry whose estimates have
// drifted past a q-error threshold is evicted, forcing a replan with
// fresh feedback — the Eraser-style "is the cached plan still behaving?"
// gate.
//
// Put keeps a deep clone and Get copies the nodes out: callers own their
// tree (the executor annotates TrueCard in place, rebinding replaces leaf
// Preds) and can never corrupt the cached copy. Safe for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	stats   CacheStats
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
	key string
	p   *plan.Node
	// est maps sub-plan ordinal (pre-order position) to the estimated
	// cardinality the optimizer planned with. Position-keyed rather than
	// sub-query-keyed so the same snapshot works for prepared-statement
	// generic plans, where later bindings change every sub-query key but
	// not the tree shape.
	est []float64
	// harvest memoizes an ad-hoc entry's feedback labels for their keys
	// (Server.harvest); nil until the first hit.
	harvest atomic.Pointer[[]opt.CardLabel]
}

// NewPlanCache returns a cache holding at most capacity plans
// (capacity <= 0 selects the default of 512).
func NewPlanCache(capacity int) *PlanCache {
	if capacity <= 0 {
		capacity = 512
	}
	return &PlanCache{
		cap:     capacity,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns a private copy of the cached plan for key, or nil on miss.
// The copy shares the cached Preds and Cond slices (plan.CloneNodes).
func (c *PlanCache) Get(key string) *plan.Node {
	p, _ := c.checkout(key)
	return p
}

// checkout is Get that also returns the entry the plan was copied from.
func (c *PlanCache) checkout(key string) (*plan.Node, *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return nil, nil
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.p.CloneNodes(), ent
}

// Put stores an optimized plan under key, snapshotting its per-node
// estimated cardinalities for later drift checks. The cache keeps its
// own clone.
func (c *PlanCache) Put(key string, p *plan.Node) {
	// Logical walk: shard internals of a Merge node carry per-partition
	// cardinalities that would skew the drift check (and their count
	// depends on the shard config, breaking positional alignment).
	est := make([]float64, 0, 8)
	p.WalkLogical(func(n *plan.Node) { est = append(est, n.EstCard) })
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := &cacheEntry{key: key, p: p.Clone(), est: est}
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

// Observe replays execution feedback against the cached entry for key:
// executed is the TrueCard-annotated plan tree that just ran (a clone of
// the cached plan, so pre-order positions line up). When any sub-plan's
// estimate drifts beyond maxQErr (q-error of estimated vs true
// cardinality), the entry is invalidated and Observe reports true — the
// signal that the next request should replan with feedback. maxQErr <= 1
// disables invalidation.
func (c *PlanCache) Observe(key string, executed *plan.Node, maxQErr float64) bool {
	if maxQErr <= 1 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	est := el.Value.(*cacheEntry).est
	i, drifted := 0, false
	executed.WalkLogical(func(n *plan.Node) {
		if i < len(est) && metrics.QError(est[i], n.TrueCard) > maxQErr {
			drifted = true
		}
		i++
	})
	// On a shape mismatch the executed tree is not this entry's plan (stale
	// feedback after a replan); drop it rather than misjudge.
	if i != len(est) || !drifted {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	c.stats.Invalidations++
	return true
}

// Clear drops every cached plan, returning how many were dropped. The
// adaptation loop calls this through Server.FlushPlans when a new
// estimator is published: every cached plan embodies the old model's
// estimates, so keeping them would serve stale join orders indefinitely.
// Counted as invalidations (the plans were dropped for model reasons,
// not capacity).
func (c *PlanCache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]*list.Element)
	c.order.Init()
	c.stats.Invalidations += int64(n)
	return n
}

// Invalidate drops the entry for key, reporting whether it was present.
func (c *PlanCache) Invalidate(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, key)
	c.stats.Invalidations++
	return true
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

// Len reports the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
