// Package broken is a deliberately violation-ridden fixture. The
// cmd/lqo-lint regression test asserts that a lint run here exits
// non-zero with every analyzer in the suite reporting, which guards
// against the failure mode where the multichecker matches zero packages
// (or an analyzer silently stops firing) and passes vacuously.
package broken

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"
)

// Est mimics a cardinality estimator.
type Est struct{}

// Estimate returns a raw, unclamped estimate.
func (Est) Estimate(n int) float64 { return float64(n) }

// Stats carries an atomic counter.
type Stats struct {
	hits atomic.Int64
}

// BatchPool mimics the executor's buffer pool.
type BatchPool struct{}

// GetSel and PutSel mimic the pool's selection-vector cycle; the pool's
// own allocations are legal.
func (p *BatchPool) GetSel(n int) []int32 { return make([]int32, 0, n) }

// PutSel returns a selection vector.
func (p *BatchPool) PutSel(s []int32) {}

// scanOp mimics a pooled operator.
type scanOp struct {
	pool *BatchPool
}

// Next allocates a row-id vector instead of drawing from the pool.
func (s *scanOp) Next() []int32 {
	return make([]int32, 0, 1024) // poolret: pooled operator bypasses its BatchPool
}

// newSel hides a selection-vector allocation one call away from the
// streaming method gather; the call-graph propagation still flags it.
func newSel() []int32 {
	return make([]int32, 0, 64) // poolret: helper on the hot path
}

func (s *scanOp) gather() []int32 { return newSel() }

var errEmpty = errors.New("empty batch")

// filterAll returns its selection vector to the pool on the happy path
// only: the early error return leaks it. A test suite that never feeds an
// empty batch will not execute that path, so the debug pool never sees
// the leak — bufown flags it statically.
func (s *scanOp) filterAll(rows [][]int32) ([]int32, error) {
	sel := s.pool.GetSel(len(rows)) // bufown: leaked on the error return below
	for i := range rows {
		if len(rows[i]) == 0 {
			return nil, errEmpty
		}
		sel = append(sel, int32(i))
	}
	s.pool.PutSel(sel)
	return nil, nil
}

// Spawn starts a goroutine whose completion channel nobody receives from
// and which never escapes: the goroutine cannot be joined.
func Spawn(n int) {
	done := make(chan struct{})
	go func() { // gojoin: no reachable join
		_ = n * 2
		close(done)
	}()
}

// Node and PassContext mimic the plan package's rewrite inputs.
type Node struct {
	Card  float64
	Preds []*Node
}

// Clone is the sanctioned copy.
func (n *Node) Clone() *Node { c := *n; return &c }

// PassContext mimics the rewrite context.
type PassContext struct{ Depth int }

type rewriter struct{}

// Rewrite mutates its input plan in place instead of cloning first.
func (rewriter) Rewrite(n *Node, pc *PassContext) (*Node, bool) {
	n.Card = 0 // passpure: store through the pass input
	return n, true
}

func mightFail() error { return nil }

// DropError discards an error-valued result as a bare statement.
func DropError() {
	mightFail() // errflow: error silently discarded
}

// Key builds a cache key by raw concatenation.
func Key(alias, table string) string {
	return alias + "." + table // keycanon: collision-prone key construction
}

// Everything violates the remaining analyzers in one function.
func Everything(e Est, s *Stats, m map[string]float64) float64 {
	ctx := context.Background() // ctxprop: fresh root context in library code
	_ = ctx
	c := e.Estimate(3)
	if c > 10 { // cardclamp: comparison on an unclamped estimate
		panic("estimate exploded") // guardsafe: naked panic
	}
	plain := s.hits // atomicpub: plain read of an atomic field
	_ = plain
	total := 0.0
	for _, v := range m { // determinism: map iteration order
		total += v
	}
	if total == c { // floateq: exact float comparison
		//lqolint:ignore determinism
		total += rand.Float64() // suppressed, but the reason-less directive trips lintignore
	}
	return total * float64(time.Now().UnixNano()%7) // determinism: wall clock
}
