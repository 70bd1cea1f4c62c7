// Package bufown_a is the golden fixture for the bufown analyzer: every
// pool.Get* buffer must reach a Put* or an ownership transfer on all
// paths out of the function. The leak cases put their buffers back on
// the happy path and lose them on a branch no test may ever execute —
// exactly the class the debug pool cannot catch.
package bufown_a

import "errors"

// BatchPool stands in for the executor's buffer pool; its own methods
// are the allocator and are exempt.
type BatchPool struct{}

// GetSel hands out a selection vector.
func (p *BatchPool) GetSel(n int) []int32 { return make([]int32, 0, n) }

// PutSel takes one back.
func (p *BatchPool) PutSel(s []int32) {}

// GetKeys hands out key scratch.
func (p *BatchPool) GetKeys(n int) []uint64 { return make([]uint64, 0, n) }

// PutKeys takes it back.
func (p *BatchPool) PutKeys(k []uint64) {}

var errBad = errors.New("bad")

func use(s []int32) {}

type op struct {
	pool *BatchPool
	out  []int32
}

// --- leaks -----------------------------------------------------------

// leakOnError loses the buffer on the early error return.
func (o *op) leakOnError(n int) error {
	sel := o.pool.GetSel(n) // want `GetSel buffer "sel" may not be returned to the pool on every path`
	if n > 10 {
		return errBad
	}
	o.pool.PutSel(sel)
	return nil
}

// conditionalPut only puts on one branch; the fall-through leaks.
func (o *op) conditionalPut(n int) {
	sel := o.pool.GetSel(n) // want `GetSel buffer "sel" may not be returned to the pool on every path`
	if n > 0 {
		o.pool.PutSel(sel)
	}
}

// gatherLeak tracks the fresh buffer through a consuming call and still
// sees the early return lose it.
func (o *op) gatherLeak(rows [][]int32) error {
	keys := fill(rows, o.pool.GetKeys(len(rows))) // want `GetKeys buffer "keys" may not be returned to the pool on every path`
	if len(rows) == 0 {
		return errBad
	}
	o.pool.PutKeys(keys)
	return nil
}

// litLeak: function literals are analyzed as their own functions.
func (o *op) litLeak() func() {
	return func() {
		sel := o.pool.GetSel(8) // want `GetSel buffer "sel" may not be returned to the pool on every path`
		use(sel)
	}
}

// reassignLeak overwrites an owned buffer, losing the first one.
func (o *op) reassignLeak(n int) {
	sel := o.pool.GetSel(n)
	sel = o.pool.GetSel(n + 1) // want `buffer "sel" reassigned while still owned`
	o.pool.PutSel(sel)
}

// doublePut returns the same buffer twice.
func (o *op) doublePut(n int) {
	sel := o.pool.GetSel(n)
	o.pool.PutSel(sel)
	o.pool.PutSel(sel) // want `double put: buffer "sel" was already returned to the pool`
}

// useAfterPut reads a buffer after returning it.
func (o *op) useAfterPut(n int) int32 {
	sel := o.pool.GetSel(n)
	o.pool.PutSel(sel)
	return sel[0] // want `use after put: buffer "sel" was returned to the pool`
}

// --- clean -----------------------------------------------------------

// cleanStraight is the plain get/put cycle.
func (o *op) cleanStraight(n int) {
	sel := o.pool.GetSel(n)
	o.pool.PutSel(sel)
}

// cleanBoth puts on every path, including the early return.
func (o *op) cleanBoth(n int) error {
	sel := o.pool.GetSel(n)
	if n > 10 {
		o.pool.PutSel(sel)
		return errBad
	}
	o.pool.PutSel(sel)
	return nil
}

func grow(dst []int32, n int) []int32 { return append(dst, int32(n)) }

// growIdiom: reassigning through a call that consumes the buffer itself
// (the append/filter-into-prefix shape) keeps ownership.
func (o *op) growIdiom(n int) {
	sel := o.pool.GetSel(n)
	for i := 0; i < n; i++ {
		sel = grow(sel[:0], i)
	}
	o.pool.PutSel(sel)
}

func fill(rows [][]int32, keys []uint64) []uint64 { return keys }

// gatherIdiom: a call consuming a direct Get transfers the fresh buffer
// into its result, which is then put on every path.
func (o *op) gatherIdiom(rows [][]int32) error {
	keys := fill(rows, o.pool.GetKeys(len(rows)))
	if len(rows) == 0 {
		o.pool.PutKeys(keys)
		return errBad
	}
	o.pool.PutKeys(keys)
	return nil
}

// escapeReturn transfers ownership to the caller.
func (o *op) escapeReturn(n int) []int32 {
	sel := o.pool.GetSel(n)
	return sel
}

// escapeField parks the buffer in the operator for a later Close to
// release.
func (o *op) escapeField(n int) {
	t := o.pool.GetSel(n)
	o.out = t
}

// escapeSend hands the buffer to the consumer on the other end.
func (o *op) escapeSend(ch chan []int32, n int) {
	sel := o.pool.GetSel(n)
	ch <- sel
}

// deferredLitPut releases via a deferred closure on every exit.
func (o *op) deferredLitPut(n int) {
	sel := o.pool.GetSel(n)
	defer func() { o.pool.PutSel(sel) }()
	use(sel)
}

// deferredPut releases via a plain deferred call.
func (o *op) deferredPut(n int) {
	sel := o.pool.GetSel(n)
	defer o.pool.PutSel(sel)
	use(sel)
}

// panicPath: a buffer still held while the process dies is not a leak
// worth reporting.
func (o *op) panicPath(n int) {
	sel := o.pool.GetSel(n)
	if n < 0 {
		panic("negative")
	}
	o.pool.PutSel(sel)
}

// produceLoop mirrors the concurrent producer: each iteration's buffer
// is either sent (ownership to the consumer) or put back on the stop
// race.
func (o *op) produceLoop(ch chan []int32, stop chan struct{}, n int) {
	for i := 0; i < n; i++ {
		buf := o.pool.GetSel(i)
		select {
		case ch <- buf:
		case <-stop:
			o.pool.PutSel(buf)
			return
		}
	}
}

// aliased: a second name for an owned buffer makes ownership ambiguous;
// tracking gives up rather than report a false leak on either name.
func (o *op) aliased(n int) {
	sel := o.pool.GetSel(n)
	s2 := sel
	o.pool.PutSel(s2)
}

// suppressed documents a deliberate leak with a reasoned directive.
func (o *op) suppressed(n int) {
	//lqolint:ignore bufown deliberately parked for the process lifetime; the harness releases it out of band
	sel := o.pool.GetSel(n)
	use(sel)
}
