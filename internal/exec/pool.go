// Buffer pooling for the operator pipeline: a per-executor BatchPool of
// typed sync.Pools for the hot-path buffer shapes — row-id vectors
// ([]int32: batch columns, selection vectors, join match indices and
// chains) and join key scratch ([]uint64) — handed down the operator tree
// at build time so steady-state execution of a cached plan allocates
// ~nothing per row.
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
//   - Streamed batch columns (Batch.Cols handed out by Next) are
//     borrowed until the consumer's next pull and never put by it: only
//     the goroutine that got a buffer from the pool may return it. A
//     consumer that keeps rows copies their ids into its own buffers.
//
// A nil *BatchPool is valid everywhere and falls back to plain
// allocation: the one degrade path (SetPool(nil), or an Executor not
// built by New).
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// poolMinCap is the minimum capacity of freshly allocated buffers, so
// even a cold Get returns something appendable without an immediate
// regrow.
const poolMinCap = 16

// BatchPool is the executor's shared buffer pool. All methods are safe
// for concurrent use and safe on a nil receiver (plain allocation, no
// recycling).
type BatchPool struct {
	sel  slicePool[int32]  // row-id vectors
	keys slicePool[uint64] // join key scratch

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

// Poison a debug pool writes into returned buffers. Any consumer reading
// it has used a buffer after putting it back.
const (
	poisonRowID int32  = -0x7fffbeef
	poisonKey   uint64 = 0xbadc0ffee0ddf00d
)

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

// GetSel returns an empty row-id vector owned by the caller until PutSel.
func (p *BatchPool) GetSel(hint int) []int32 {
	if p == nil {
		return make([]int32, 0, max(hint, poolMinCap))
	}
	return getBuf(p, &p.sel, hint, poisonRowID, "row-id vector")
}

// PutSel returns a row-id vector to the pool; nil is ignored (so a Close
// that already ran is a no-op). The vector must not be used after.
func (p *BatchPool) PutSel(s []int32) {
	if p != nil && s != nil {
		putBuf(p, &p.sel, s, poisonRowID, "row-id vector")
	}
}

// GetKeys returns an empty key-scratch buffer owned by the caller until
// PutKeys.
func (p *BatchPool) GetKeys(hint int) []uint64 {
	if p == nil {
		return make([]uint64, 0, max(hint, poolMinCap))
	}
	return getBuf(p, &p.keys, hint, poisonKey, "key buffer")
}

// PutKeys returns a key-scratch buffer to the pool; nil is ignored.
func (p *BatchPool) PutKeys(k []uint64) {
	if p != nil && k != nil {
		putBuf(p, &p.keys, k, poisonKey, "key buffer")
	}
}

// getBuf is Get for one buffer kind of a non-nil pool, checking on a
// debug pool that the parked buffer still holds only poison.
func getBuf[T comparable](p *BatchPool, sp *slicePool[T], hint int, poison T, kind string) []T {
	p.outstanding.Add(1)
	s := sp.get()
	if s == nil {
		return make([]T, 0, max(hint, poolMinCap))
	}
	if p.dbg != nil {
		id := &s[:cap(s)][0]
		p.dbg.mu.Lock()
		defer p.dbg.mu.Unlock()
		delete(p.dbg.free, id)
		for _, v := range s[:cap(s)] {
			if v != poison {
				p.dbg.record("use after put: %s %p was written while pooled", kind, id)
				break
			}
		}
	}
	return s[:0]
}

// putBuf is Put for one buffer kind of a non-nil pool. A debug pool
// refuses (and records) a buffer already in the pool, and poisons the
// rest. Zero-capacity buffers have no identity and are not recycled.
func putBuf[T comparable](p *BatchPool, sp *slicePool[T], s []T, poison T, kind string) {
	p.outstanding.Add(-1)
	if cap(s) == 0 {
		return
	}
	if p.dbg != nil {
		id := &s[:cap(s)][0]
		p.dbg.mu.Lock()
		_, dup := p.dbg.free[id]
		if dup {
			p.dbg.record("double put of %s %p", kind, id)
		} else {
			p.dbg.free[id] = kind
			full := s[:cap(s)]
			for i := range full {
				full[i] = poison
			}
		}
		p.dbg.mu.Unlock()
		if dup {
			return
		}
	}
	sp.put(s[:0])
}
