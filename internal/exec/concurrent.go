// Buffered inter-operator exchange: a transparent operator that runs its
// child on a producer goroutine and hands batches to the consumer
// through a small bounded channel, so adjacent pipeline stages (scan →
// join → sink) overlap instead of lock-stepping on every Next call — the
// promql-engine concurrencyOperator idiom.
//
// Transparency contract. The exchange changes only scheduling, never
// what is measured: batches cross the channel in emission order with
// their columns copied verbatim into pooled vectors, the operator carries
// no plan node and charges no work units, and its telemetry never
// reaches CostStats or EXPLAIN ANALYZE (both are plan-node-driven). The
// channel-close happens-before edge means the child's final charges are
// visible to the consumer before it observes exhaustion. Results,
// TrueCards and WorkUnits are byte-identical to the serial schedule's.
package exec

import (
	"context"
	"sync"
)

// exchangeDepth is how many batches may be in flight between a producer
// stage and its consumer. Small: enough to absorb scheduling jitter and
// keep both stages busy, without ballooning in-flight memory.
const exchangeDepth = 4

// pipeItem is one message from producer to consumer: a slot holding a
// pooled copy of a batch, or the child's terminal error.
type pipeItem struct {
	b   *Batch
	err error
}

// concurrentOp decouples its child behind a bounded channel of pooled
// in-flight batches.
type concurrentOp struct {
	pool  *BatchPool
	child Operator

	ctx      context.Context
	ch       chan pipeItem
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// slots carry the in-flight batches: at most exchangeDepth in the
	// channel, one being filled and one held by the consumer, so a free
	// slot is always waiting.
	slots [exchangeDepth + 2]Batch
	free  chan *Batch

	prev *Batch // slot handed to the consumer; its vectors go back on the next pull
	done bool
	tel  OpTelemetry
}

// stage wraps op behind a buffered exchange when Workers > 1, overlapping
// adjacent pipeline stages. With Workers <= 1 the executor keeps its
// documented fully-serial schedule.
func (e *Executor) stage(op Operator, analyze bool) Operator {
	if e.workers() <= 1 {
		return op
	}
	return timed(&concurrentOp{pool: e.pool, child: op}, analyze)
}

func (c *concurrentOp) Open(ctx context.Context) error {
	c.ctx = ctx
	c.tel.Op = "Exchange(pipe)"
	if err := c.child.Open(ctx); err != nil {
		return err
	}
	c.ch = make(chan pipeItem, exchangeDepth)
	c.stop = make(chan struct{})
	c.free = make(chan *Batch, len(c.slots))
	for i := range c.slots {
		c.free <- &c.slots[i]
	}
	c.wg.Add(1)
	go c.produce()
	return nil
}

// produce pulls the child to exhaustion, copying each batch into a free
// slot's pooled vectors (the child may reuse its own on the next pull)
// and sending it downstream. Ownership of a sent slot's vectors passes to
// the consumer; a slot that cannot be sent (stop raced the send) has them
// returned to the pool here.
func (c *concurrentOp) produce() {
	defer c.wg.Done()
	defer close(c.ch)
	for {
		select {
		case <-c.stop:
			return
		default:
		}
		b, err := c.child.Next()
		if err != nil {
			select {
			case c.ch <- pipeItem{err: err}:
			case <-c.stop:
			}
			return
		}
		if b == nil {
			return
		}
		slot := <-c.free
		slot.alloc(c.pool, len(b.Cols))
		slot.appendRows(b, 0, b.N)
		select {
		case c.ch <- pipeItem{b: slot}:
		case <-c.stop:
			slot.free(c.pool)
			return
		}
	}
}

// release returns the consumer's previous slot and its vectors.
func (c *concurrentOp) release() {
	if c.prev != nil {
		c.prev.free(c.pool)
		c.free <- c.prev
		c.prev = nil
	}
}

func (c *concurrentOp) Next() (*Batch, error) {
	c.release()
	if c.done {
		return nil, nil
	}
	select {
	case it, ok := <-c.ch:
		if !ok {
			c.done = true
			return nil, nil
		}
		if it.err != nil {
			c.done = true
			return nil, it.err
		}
		c.prev = it.b
		c.tel.RowsIn += int64(it.b.N)
		c.tel.RowsOut += int64(it.b.N)
		c.tel.Batches++
		return it.b, nil
	case <-c.ctx.Done():
		return nil, c.ctx.Err()
	}
}

func (c *concurrentOp) Close() error {
	if c.ch != nil {
		c.stopOnce.Do(func() { close(c.stop) })
		c.wg.Wait()
		// The producer has exited and closed the channel; drain whatever
		// it had in flight back into the pool.
		for it := range c.ch {
			if it.b != nil {
				it.b.free(c.pool)
			}
		}
		c.ch = nil
		c.release()
	}
	return c.child.Close()
}

func (c *concurrentOp) Telemetry() *OpTelemetry { return &c.tel }
func (c *concurrentOp) Schema() []string        { return c.child.Schema() }
