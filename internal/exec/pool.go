// Buffer pooling for the operator pipeline: a per-executor BatchPool of
// run-local buffer sets. A run checks one runSet out at its start and in
// at its end; in between every hot-path buffer — row-id vectors ([]int32:
// batch columns, selection vectors, join match indices and chains) and
// join key scratch ([]uint64) — and every recycled operator struct is a
// push or pop on that set's free stacks, so steady-state execution of a
// cached plan allocates ~nothing and makes two sync.Pool calls per run.
//
// Idle sets are cache, not state: parked in one sync.Pool, they vanish
// after two collections without a run (checkout explains the weak hint).
//
// Ownership contract (the promql-engine VectorPool discipline):
//
//   - An operator that materializes output gets its buffers from the
//     run's set (at Open, or at first use for lazily-sized scratch) and
//     puts them back in Close. Get and Put must pair exactly: InUse counts
//     outstanding buffers, and the pool-contract tests assert it returns
//     to zero once every operator has closed.
//   - A buffer travels with its producer: the operator that got it is
//     the one that returns it.
//   - Streamed batch columns (Batch.Cols handed out by Next) are
//     borrowed until the consumer's next pull and never put by it: only
//     the goroutine that got a buffer from the pool may return it. A
//     consumer that keeps rows copies their ids into its own buffers.
//
// A nil *BatchPool is valid everywhere and recycles nothing across runs:
// the one degrade path (SetPool(nil), or an Executor not built by New).
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"weak"
)

// poolMinCap is the minimum capacity of freshly allocated buffers, so
// even a cold Get returns something appendable without an immediate
// regrow.
const poolMinCap = 16

// BatchPool is the executor's shared buffer pool. All methods are safe
// for concurrent use and safe on a nil receiver (no recycling).
type BatchPool struct {
	idle        sync.Pool                            // parked *runSet
	last        atomic.Pointer[weak.Pointer[runSet]] // the set checked in last
	outstanding atomic.Int64                         // gets minus puts, added by each set at check-in
	dbg         *poolDebug
}

// runSet is one run's buffers and operator structs: free stacks that only
// the goroutine holding the set touches.
type runSet struct {
	busy atomic.Bool           // held by a run; claimed by CompareAndSwap
	self *weak.Pointer[runSet] // what BatchPool.last points to
	out  int64                 // gets minus puts since check-out
	sels [][]int32
	keys [][]uint64
	ops  [numOpKinds][]any // operator structs by type (build.go); not in InUse
	bind binder            // an unbound run's resolution (bind.go)
	dbg  *poolDebug
}

// checkout claims an idle set: the one this P parked, else the one checked
// in last (a sync.Pool's per-P private slot cannot be stolen, so a client
// goroutine that moved to another P would build a new set), else a new
// one. The hint is weak so that it keeps no idle set alive; the busy flag
// decides who holds a set reachable both ways. A nil pool parks nothing.
func (p *BatchPool) checkout() *runSet {
	if p == nil {
		return &runSet{}
	}
	if s, _ := p.idle.Get().(*runSet); s != nil && s.busy.CompareAndSwap(false, true) {
		return s
	}
	if w := p.last.Load(); w != nil {
		if s := w.Value(); s != nil && s.busy.CompareAndSwap(false, true) {
			return s
		}
	}
	s := &runSet{self: new(weak.Pointer[runSet]), dbg: p.dbg}
	*s.self = weak.Make(s)
	s.busy.Store(true)
	return s
}

// checkin parks a set once every operator drawing from it has closed.
func (p *BatchPool) checkin(s *runSet) {
	if p == nil {
		return
	}
	p.outstanding.Add(s.out)
	s.out = 0
	s.busy.Store(false)
	p.last.Store(s.self)
	p.idle.Put(s)
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

// InUse returns the number of Gets not yet matched by a Put, counted when
// their set is checked in (a run's, after Close): zero once all closed.
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

// bufs is a run's set, or the pool checking a set out for each call.
type bufs interface {
	GetSel(hint int) []int32
	PutSel(s []int32)
	GetKeys(hint int) []uint64
	PutKeys(k []uint64)
}

// GetSel returns an empty row-id vector owned by the caller until PutSel.
func (p *BatchPool) GetSel(hint int) []int32 {
	s := p.checkout()
	defer p.checkin(s)
	return s.GetSel(hint)
}

// PutSel returns a row-id vector to the pool; nil is ignored (so a Close
// that already ran is a no-op). The vector must not be used after.
func (p *BatchPool) PutSel(b []int32) {
	s := p.checkout()
	defer p.checkin(s)
	s.PutSel(b)
}

// GetKeys returns an empty key-scratch buffer owned by the caller until
// PutKeys.
func (p *BatchPool) GetKeys(hint int) []uint64 {
	s := p.checkout()
	defer p.checkin(s)
	return s.GetKeys(hint)
}

// PutKeys returns a key-scratch buffer to the pool; nil is ignored.
func (p *BatchPool) PutKeys(k []uint64) {
	s := p.checkout()
	defer p.checkin(s)
	s.PutKeys(k)
}

// The run set's Get and Put are the pool's, served from its stacks.
func (s *runSet) GetSel(hint int) []int32   { return pop(s, &s.sels, hint, poisonRowID, "row-id vector") }
func (s *runSet) PutSel(b []int32)          { push(s, &s.sels, b, poisonRowID, "row-id vector") }
func (s *runSet) GetKeys(hint int) []uint64 { return pop(s, &s.keys, hint, poisonKey, "key buffer") }
func (s *runSet) PutKeys(k []uint64)        { push(s, &s.keys, k, poisonKey, "key buffer") }

// pop is Get for one buffer kind, checking on a debug pool that the
// parked buffer still holds only poison.
func pop[T comparable](s *runSet, free *[][]T, hint int, poison T, kind string) []T {
	s.out++
	n := len(*free) - 1
	if n < 0 {
		return make([]T, 0, max(hint, poolMinCap))
	}
	b := (*free)[n]
	(*free)[n] = nil
	*free = (*free)[:n]
	if s.dbg != nil {
		id := &b[:cap(b)][0]
		s.dbg.mu.Lock()
		defer s.dbg.mu.Unlock()
		delete(s.dbg.free, id)
		for _, v := range b[:cap(b)] {
			if v != poison {
				s.dbg.record("use after put: %s %p was written while pooled", kind, id)
				break
			}
		}
	}
	return b[:0]
}

// push is Put for one buffer kind; nil is ignored. A debug pool refuses
// (and records) a buffer already in the pool, and poisons the rest.
// Zero-capacity buffers have no identity and are not recycled.
func push[T comparable](s *runSet, free *[][]T, b []T, poison T, kind string) {
	if b == nil {
		return
	}
	s.out--
	if cap(b) == 0 {
		return
	}
	if s.dbg != nil {
		id := &b[:cap(b)][0]
		s.dbg.mu.Lock()
		_, dup := s.dbg.free[id]
		if dup {
			s.dbg.record("double put of %s %p", kind, id)
		} else {
			s.dbg.free[id] = kind
			full := b[:cap(b)]
			for i := range full {
				full[i] = poison
			}
		}
		s.dbg.mu.Unlock()
		if dup {
			return
		}
	}
	*free = append(*free, b[:0])
}
