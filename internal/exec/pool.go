// Buffer pooling for the operator pipeline: a per-executor BatchPool of
// typed sync.Pools for the hot-path buffer shapes — row-id batches
// ([][]int32), selection vectors ([]int32), span-buffer arrays
// ([][][]int32), join key scratch ([]uint64) and tuple slabs — handed
// down the operator tree at build time so steady-state execution of a
// cached plan allocates ~nothing per row.
//
// Ownership contract (the promql-engine VectorPool discipline):
//
//   - An operator that materializes output gets its buffers from the
//     pool (at Open, or at first use for lazily-sized scratch) and puts
//     them back in Close. Get and Put must pair exactly: InUse counts
//     outstanding buffers, and the pool-contract tests assert it returns
//     to zero once every operator has closed.
//   - A buffer travels with its producer: the consuming operator that
//     takes ownership of a buffer (the buffered exchange's in-flight
//     batches) is the one that returns it.
//   - Streamed batch views (Batch.Tuples handed out by Next) are
//     borrowed, never put: only the goroutine that got a buffer from the
//     pool may return it.
//   - Tuples ([]int32 values inside batches) are immutable and carved
//     from arena slabs; they are recycled wholesale when the producing
//     operator's arena releases at Close, which is safe because no tuple
//     outlives a run (results carry only scalars).
//
// A nil *BatchPool is valid everywhere and falls back to plain
// allocation — Executor.NoPool routes every operator through that path,
// restoring the pre-pooling behavior for bisection.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// tupleSlabInts is the size in int32s of one pooled tuple slab (32 KiB).
// Tuple storage — row ids and join concatenations — is carved from slabs
// in full-capacity sub-slices, so per-row allocations become one
// allocation per slab. Requests larger than a slab bypass the pool.
const tupleSlabInts = 8192

// poolMinCap is the minimum capacity of freshly allocated tuple/
// selection/key buffers, so even a cold Get returns something appendable
// without an immediate regrow.
const poolMinCap = 16

// BatchPool is the executor's shared buffer pool. All methods are safe
// for concurrent use and safe on a nil receiver (plain allocation, no
// recycling) — the NoPool escape hatch is "hand every operator a nil
// pool".
type BatchPool struct {
	tuples slicePool[[]int32]   // batch and span output buffers
	sel    slicePool[int32]     // selection vectors
	spans  slicePool[[][]int32] // per-span buffer arrays
	keys   slicePool[uint64]    // join key scratch
	slabs  slicePool[int32]     // tuple arena slabs (cap == tupleSlabInts)

	ops [numOpKinds]sync.Pool // operator structs by type (build.go); not in InUse

	// outstanding is gets minus puts across every kind — the leak
	// accounting the pool-contract tests pin to zero after Close.
	outstanding atomic.Int64

	dbg *poolDebug
}

// slicePool parks []T buffers in a sync.Pool without allocating on
// return: the heap box a parked slice header needs is emptied by get and
// refilled by the next put.
type slicePool[T any] struct {
	full  sync.Pool // *[]T holding a parked buffer
	boxes sync.Pool // *[]T emptied by get
}

// get returns a parked buffer at its parked length, or nil.
func (p *slicePool[T]) get() (s []T) {
	if v, _ := p.full.Get().(*[]T); v != nil {
		s, *v = *v, nil
		p.boxes.Put(v)
	}
	return s
}

func (p *slicePool[T]) put(s []T) {
	v, _ := p.boxes.Get().(*[]T)
	if v == nil {
		v = new([]T)
	}
	*v = s
	p.full.Put(v)
}

// NewBatchPool returns an empty pool.
func NewBatchPool() *BatchPool { return &BatchPool{} }

// NewDebugBatchPool returns a pool that additionally tracks buffer
// identity to detect contract violations: a double Put of the same
// buffer, and writes through a stale reference while a buffer sits in
// the pool (use after put, surfaced by poisoning on Put and checking the
// poison on Get). Violations are recorded, never panicked — Misuse
// returns them. Debug pools are for tests; the tracking takes a lock per
// Get/Put.
func NewDebugBatchPool() *BatchPool {
	return &BatchPool{dbg: &poolDebug{free: make(map[any]string)}}
}

// poisonRowID is the sentinel a debug pool writes into returned buffers.
// Any consumer reading it has used a buffer after putting it back.
const poisonRowID int32 = -0x7fffbeef

var poisonTuple = []int32{poisonRowID}

type poolDebug struct {
	mu     sync.Mutex
	free   map[any]string // identity of buffers currently in the pool -> kind
	misuse []string
}

func (d *poolDebug) record(format string, args ...any) {
	d.misuse = append(d.misuse, fmt.Sprintf(format, args...))
}

// InUse returns the number of outstanding buffers: every Get not yet
// matched by a Put. Zero once all operators drawing from the pool have
// closed.
func (p *BatchPool) InUse() int64 {
	if p == nil {
		return 0
	}
	return p.outstanding.Load()
}

// Misuse returns the contract violations a debug pool has recorded
// (double puts, writes after put). Always empty for non-debug pools.
func (p *BatchPool) Misuse() []string {
	if p == nil || p.dbg == nil {
		return nil
	}
	p.dbg.mu.Lock()
	defer p.dbg.mu.Unlock()
	return append([]string(nil), p.dbg.misuse...)
}

// tupleID is the identity of a [][]int32 buffer: the address of its
// first backing element. Zero-capacity buffers have no identity and are
// not tracked (nor recycled).
func tupleID(b [][]int32) any {
	if cap(b) == 0 {
		return nil
	}
	return &b[:cap(b)][0]
}

func selID(s []int32) any {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

// GetTuples returns an empty tuple buffer with capacity at least its
// pooled history provides (hint sizes a cold allocation). The caller
// owns it until PutTuples.
func (p *BatchPool) GetTuples(hint int) [][]int32 {
	if p == nil {
		return make([][]int32, 0, max(hint, poolMinCap))
	}
	p.outstanding.Add(1)
	if b := p.tuples.get(); b != nil {
		if p.dbg != nil {
			p.checkTuplesPoison(b)
		}
		return b[:0]
	}
	return make([][]int32, 0, max(hint, poolMinCap))
}

// PutTuples returns a tuple buffer to the pool. Nil is ignored (so a
// Close that already ran is a no-op); the buffer must not be used after.
func (p *BatchPool) PutTuples(b [][]int32) {
	if p == nil || b == nil {
		return
	}
	p.outstanding.Add(-1)
	if cap(b) == 0 {
		return
	}
	if p.dbg != nil && !p.admitTuples(b) {
		return
	}
	p.tuples.put(b[:0])
}

// admitTuples marks b free and poisons it; false (with a recorded
// violation) when b is already in the pool.
func (p *BatchPool) admitTuples(b [][]int32) bool {
	id := tupleID(b)
	p.dbg.mu.Lock()
	defer p.dbg.mu.Unlock()
	if _, dup := p.dbg.free[id]; dup {
		p.dbg.record("double put of tuple buffer %p", id)
		return false
	}
	p.dbg.free[id] = "tuples"
	full := b[:cap(b)]
	for i := range full {
		full[i] = poisonTuple
	}
	return true
}

// checkTuplesPoison verifies b still holds only the poison written at
// Put; anything else means a stale reference wrote into the buffer while
// it sat in the pool.
func (p *BatchPool) checkTuplesPoison(b [][]int32) {
	id := tupleID(b)
	p.dbg.mu.Lock()
	defer p.dbg.mu.Unlock()
	delete(p.dbg.free, id)
	full := b[:cap(b)]
	for i := range full {
		if len(full[i]) != 1 || &full[i][0] != &poisonTuple[0] {
			p.dbg.record("use after put: tuple buffer %p was written while pooled", id)
			return
		}
	}
}

// GetSel returns an empty selection vector owned by the caller until
// PutSel.
func (p *BatchPool) GetSel(hint int) []int32 {
	if p == nil {
		return make([]int32, 0, max(hint, poolMinCap))
	}
	p.outstanding.Add(1)
	if s := p.sel.get(); s != nil {
		if p.dbg != nil {
			p.checkSelPoison(s)
		}
		return s[:0]
	}
	return make([]int32, 0, max(hint, poolMinCap))
}

// PutSel returns a selection vector to the pool; nil is ignored.
func (p *BatchPool) PutSel(s []int32) {
	if p == nil || s == nil {
		return
	}
	p.outstanding.Add(-1)
	if cap(s) == 0 {
		return
	}
	if p.dbg != nil && !p.admitSel(s) {
		return
	}
	p.sel.put(s[:0])
}

func (p *BatchPool) admitSel(s []int32) bool {
	id := selID(s)
	p.dbg.mu.Lock()
	defer p.dbg.mu.Unlock()
	if _, dup := p.dbg.free[id]; dup {
		p.dbg.record("double put of selection vector %p", id)
		return false
	}
	p.dbg.free[id] = "sel"
	full := s[:cap(s)]
	for i := range full {
		full[i] = poisonRowID
	}
	return true
}

func (p *BatchPool) checkSelPoison(s []int32) {
	id := selID(s)
	p.dbg.mu.Lock()
	defer p.dbg.mu.Unlock()
	delete(p.dbg.free, id)
	full := s[:cap(s)]
	for i := range full {
		if full[i] != poisonRowID {
			p.dbg.record("use after put: selection vector %p was written while pooled", id)
			return
		}
	}
}

// GetSpans returns a span-buffer array of length n with nil entries —
// the per-worker output scaffolding of one fork-join fill segment.
func (p *BatchPool) GetSpans(n int) [][][]int32 {
	if p == nil {
		return make([][][]int32, n)
	}
	p.outstanding.Add(1)
	if s := p.spans.get(); s != nil {
		if cap(s) >= n {
			s = s[:n]
			for i := range s {
				s[i] = nil
			}
			return s
		}
		// Too small for this fan-out; drop it and size up.
	}
	return make([][][]int32, n)
}

// PutSpans returns a span-buffer array, clearing its entries (the
// per-span buffers inside have their own ownership); nil is ignored.
func (p *BatchPool) PutSpans(s [][][]int32) {
	if p == nil || s == nil {
		return
	}
	p.outstanding.Add(-1)
	if cap(s) == 0 {
		return
	}
	for i := range s {
		s[i] = nil
	}
	p.spans.put(s[:0])
}

// GetKeys returns an empty key-scratch buffer owned by the caller until
// PutKeys.
func (p *BatchPool) GetKeys(hint int) []uint64 {
	if p == nil {
		return make([]uint64, 0, max(hint, poolMinCap))
	}
	p.outstanding.Add(1)
	if k := p.keys.get(); k != nil {
		return k
	}
	return make([]uint64, 0, max(hint, poolMinCap))
}

// PutKeys returns a key-scratch buffer to the pool; nil is ignored.
func (p *BatchPool) PutKeys(k []uint64) {
	if p == nil || k == nil {
		return
	}
	p.outstanding.Add(-1)
	if cap(k) == 0 {
		return
	}
	p.keys.put(k[:0])
}

// getSlab returns one full-length tuple slab.
func (p *BatchPool) getSlab() []int32 {
	if p == nil {
		return make([]int32, tupleSlabInts)
	}
	p.outstanding.Add(1)
	if s := p.slabs.get(); s != nil {
		return s
	}
	return make([]int32, tupleSlabInts)
}

// putSlab recycles a slab. Only exact-size slabs return to the pool:
// anything else is an oversize one-off allocation.
func (p *BatchPool) putSlab(s []int32) {
	if p == nil || s == nil {
		return
	}
	p.outstanding.Add(-1)
	if cap(s) != tupleSlabInts {
		return
	}
	p.slabs.put(s[:tupleSlabInts])
}

// tupleArena owns the slab storage behind one operator's emitted tuples.
// Workers carve tuples from it through per-goroutine arenaChunks; the
// arena itself only locks when a chunk exhausts its slab. release
// returns every slab to the pool — called from the operator's Close,
// which is safe because by then no tuple from this operator can still be
// referenced (results carry only scalars, and parents close before their
// children release).
type tupleArena struct {
	pool *BatchPool

	mu    sync.Mutex
	slabs [][]int32
}

// grab acquires one slab for a chunk. Under NoPool the nil-receiver
// getSlab falls back to plain slab allocation.
func (a *tupleArena) grab() []int32 {
	s := a.pool.getSlab()
	a.mu.Lock()
	a.slabs = append(a.slabs, s)
	a.mu.Unlock()
	return s
}

// release returns every slab to the pool. Idempotent; the arena is
// reusable afterwards (fresh slabs, the slab list's capacity kept).
func (a *tupleArena) release() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range a.slabs {
		a.pool.putSlab(s)
		a.slabs[i] = nil
	}
	a.slabs = a.slabs[:0]
}

// arenaChunk is one goroutine's private carving handle over an arena:
// alloc cuts full-capacity sub-slices off the chunk's current slab, so
// concurrent workers never contend except when a slab runs out. A chunk
// with a nil arena falls back to plain per-call allocation (the NoPool
// path and the reference evaluator).
type arenaChunk struct {
	a    *tupleArena
	free []int32
}

// alloc returns immutable tuple storage of length n (capacity exactly n,
// so append on a carved tuple can never clobber a neighbor). Nil
// receivers and nil-arena chunks allocate plainly.
func (c *arenaChunk) alloc(n int) []int32 {
	if c == nil || c.a == nil || n > tupleSlabInts {
		//lqolint:ignore poolret nil-arena (NoPool) fallback and oversized-tuple escape: both are the documented plain-allocation paths
		return make([]int32, n)
	}
	if len(c.free) < n {
		c.free = c.a.grab()
	}
	t := c.free[:n:n]
	c.free = c.free[n:]
	return t
}

// one allocates a single-element tuple.
func (c *arenaChunk) one(v int32) []int32 {
	t := c.alloc(1)
	t[0] = v
	return t
}

// concat allocates the concatenation of two tuples — the join output
// path.
func (c *arenaChunk) concat(a, b []int32) []int32 {
	t := c.alloc(len(a) + len(b))
	copy(t, a)
	copy(t[len(a):], b)
	return t
}

// reset drops the chunk's claim on its slab remainder. Call before the
// owning arena releases.
func (c *arenaChunk) reset() { c.free = nil }
