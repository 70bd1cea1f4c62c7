package serve

import (
	"sync"

	"lqo/internal/data"
	"lqo/internal/sqlx"
)

// stmtCache maps ad-hoc SQL text to its parsed statement and plan-cache
// key, so a repeated text skips parsing and key encoding. An entry is
// served only while sqlx.Prepared.Current holds against the catalog; a
// stale one reads as a miss and is overwritten when the text is admitted
// again. Server.Query admits a text only after a request for it hits the
// plan cache, so texts seen once never take a slot. Past cacheSize
// entries the whole map is dropped: a working set that overflows it
// churns either way, and a second LRU list would cost every hit. Safe for
// concurrent use; the cached queries are shared read-only.
type stmtCache struct {
	mu           sync.Mutex
	entries      map[string]stmtEntry
	hits, misses int64
}

// stmtEntry is a parsed ad-hoc statement and its plan-cache key
// (its ShapeKey).
type stmtEntry struct {
	st  *sqlx.Prepared
	key string
}

func newStmtCache() *stmtCache {
	return &stmtCache{entries: make(map[string]stmtEntry)}
}

// get returns the entry for sql if there is one and it is current
// against cat, counting a hit or a miss.
func (c *stmtCache) get(sql string, cat *data.Catalog) (stmtEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[sql]
	if ok && e.st.Current(cat) {
		c.hits++
		return e, true
	}
	c.misses++
	return stmtEntry{}, false
}

// put stores e under sql, first dropping every entry if a new text would
// exceed the capacity.
func (c *stmtCache) put(sql string, e stmtEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[sql]; !ok && len(c.entries) >= cacheSize {
		clear(c.entries)
	}
	c.entries[sql] = e
}

// stats returns the hit and miss counts.
func (c *stmtCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
