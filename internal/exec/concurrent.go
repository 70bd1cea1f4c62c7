// Buffered inter-operator exchange: a transparent operator that runs its
// child on a producer goroutine and hands batches to the consumer
// through a small bounded channel, so adjacent pipeline stages (scan →
// join → sink) overlap instead of lock-stepping on every Next call — the
// promql-engine concurrencyOperator idiom.
//
// Transparency contract. The exchange changes only scheduling, never
// what is measured: batches cross the channel in emission order with
// their tuples copied verbatim into pooled buffers, the operator carries
// no plan node and charges no work units, and its telemetry never
// reaches CostStats or EXPLAIN ANALYZE (both are plan-node-driven). The
// channel-close happens-before edge means the child's final charges are
// visible to the consumer before it observes exhaustion. Results,
// TrueCards and WorkUnits are byte-identical with the exchange on or
// off; Executor.NoExchange is the bisection escape hatch.
package exec

import (
	"context"
	"sync"
)

// exchangeDepth is how many batches may be in flight between a producer
// stage and its consumer. Small: enough to absorb scheduling jitter and
// keep both stages busy, without ballooning in-flight memory.
const exchangeDepth = 4

// pipeItem is one message from producer to consumer: a pooled copy of a
// batch's tuple pointers, or the child's terminal error.
type pipeItem struct {
	tuples [][]int32
	err    error
}

// concurrentOp decouples its child behind a bounded channel of pooled
// in-flight batches.
type concurrentOp struct {
	e     *Executor
	pool  *BatchPool
	child Operator

	ctx      context.Context
	ch       chan pipeItem
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	prev [][]int32 // last buffer handed to the consumer; put on the next pull
	done bool
	out  Batch
	tel  OpTelemetry
}

// stage wraps op behind a buffered exchange when pipelined stage overlap
// is on (Workers > 1 and not NoExchange). With Workers <= 1 the executor
// keeps its documented fully-serial schedule.
func (e *Executor) stage(op Operator, analyze bool) Operator {
	if e.NoExchange || e.workers() <= 1 {
		return op
	}
	return timed(&concurrentOp{e: e, pool: e.batchPool(), child: op}, analyze)
}

func (c *concurrentOp) Open(ctx context.Context) error {
	c.ctx = ctx
	c.tel.Op = "Exchange(pipe)"
	if err := c.child.Open(ctx); err != nil {
		return err
	}
	c.ch = make(chan pipeItem, exchangeDepth)
	c.stop = make(chan struct{})
	c.wg.Add(1)
	go c.produce()
	return nil
}

// produce pulls the child to exhaustion, copying each batch's outer
// slice into a pooled buffer (the child may reuse its own on the next
// pull) and sending it downstream. Ownership of a sent buffer passes to
// the consumer; a buffer that cannot be sent (stop raced the send) is
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
		buf := c.pool.GetTuples(len(b.Tuples))
		buf = append(buf, b.Tuples...)
		select {
		case c.ch <- pipeItem{tuples: buf}:
		case <-c.stop:
			c.pool.PutTuples(buf)
			return
		}
	}
}

func (c *concurrentOp) Next() (*Batch, error) {
	if c.prev != nil {
		c.pool.PutTuples(c.prev)
		c.prev = nil
		c.out.Tuples = nil
	}
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
		c.prev = it.tuples
		c.out.Tuples = it.tuples
		c.tel.RowsIn += int64(len(it.tuples))
		c.tel.RowsOut += int64(len(it.tuples))
		c.tel.Batches++
		return &c.out, nil
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
			c.pool.PutTuples(it.tuples)
		}
		c.ch = nil
	}
	if c.prev != nil {
		c.pool.PutTuples(c.prev)
		c.prev = nil
	}
	c.out.Tuples = nil
	return c.child.Close()
}

func (c *concurrentOp) Telemetry() *OpTelemetry { return &c.tel }
func (c *concurrentOp) Schema() []string        { return c.child.Schema() }
