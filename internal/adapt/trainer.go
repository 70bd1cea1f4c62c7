package adapt

import (
	"context"
	"sync"

	"lqo/internal/cardest"
	"lqo/internal/guard"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// Collector accumulates true-cardinality training labels harvested from
// runs' records (exec.Result.Cards; it never reads a plan's TrueCard): one
// cardest.Sample per distinct sub-query, bounded FIFO.
// Re-observing a known sub-query refreshes its label in place (execution
// truth is a property of the current data, so the newest observation
// wins); once full, new keys evict the oldest — stale pre-drift labels age
// out instead of poisoning retraining forever. Iteration order is
// insertion order, never map order, keeping retraining deterministic.
// Safe for concurrent use.
type Collector struct {
	mu      sync.Mutex
	cap     int
	samples []cardest.Sample
	index   map[string]int // sub-query key -> sequence number
	base    int            // sequence number of samples[0]
}

// NewCollector returns a collector bounded to capacity labels
// (capacity <= 0 selects the default of 8192).
func NewCollector(capacity int) *Collector {
	if capacity <= 0 {
		capacity = 8192
	}
	return &Collector{cap: capacity, index: make(map[string]int)}
}

// ObserveRun is add(g.Sub(mask), cards[i]) for p's i-th node in
// pre-order, cards being the run's record (exec.Result.Cards) over g's
// query — a feedback.Store's harvest, kept across queries. The labels not
// yet held share one g.SubsOf slab, built outside the lock; a held label
// is only refreshed, so it pins no slab. p and g are only read.
func (c *Collector) ObserveRun(g *query.JoinGraph, p *plan.Node, cards []float64) {
	masks, fresh, key := make([]uint64, 0, 32), make([]uint64, 0, 32), make([]byte, 0, 256)
	p.WalkLogicalMasks(g, func(_ *plan.Node, mask uint64) { masks = append(masks, mask) })
	c.mu.Lock()
	for _, m := range masks {
		key = g.AppendKey(key[:0], m)
		if _, ok := c.index[string(key)]; !ok {
			fresh = append(fresh, m)
		}
	}
	c.mu.Unlock()
	subs := g.SubsOf(fresh)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range masks {
		if len(fresh) > 0 && fresh[0] == m {
			c.add(&subs[0], cards[i])
			fresh, subs = fresh[1:], subs[1:]
			continue
		}
		key = g.AppendKey(key[:0], m)
		if seq, ok := c.index[string(key)]; ok {
			c.samples[seq-c.base].Card = cards[i]
		} else {
			c.add(g.Sub(m), cards[i]) // held at the lookup, evicted since
		}
	}
}

// add records (or refreshes) the true cardinality of one sub-query. The
// caller holds c.mu.
func (c *Collector) add(q *query.Query, card float64) {
	k := q.Key()
	if seq, ok := c.index[k]; ok {
		c.samples[seq-c.base].Card = card
		return
	}
	if len(c.samples) >= c.cap {
		delete(c.index, c.samples[0].Q.Key())
		c.samples[0] = cardest.Sample{} // the evicted label must not pin its slab
		c.samples = c.samples[1:]
		c.base++
	}
	c.index[k] = c.base + len(c.samples)
	c.samples = append(c.samples, cardest.Sample{Q: q, Card: card})
}

// Len reports how many labels are held.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.samples)
}

// Samples returns the labels in insertion order (a copy; callers may hand
// it straight to estimator training).
func (c *Collector) Samples() []cardest.Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cardest.Sample, len(c.samples))
	copy(out, c.samples)
	return out
}

// Reset discards every label. Called on hot-swap and rollback: the label
// pool should reflect the regime the next candidate will be judged in.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.samples = nil
	c.index = make(map[string]int)
	c.base = 0
}

// TrainFunc builds a candidate estimator from a training context. It runs
// off the hot path, panic-isolated, and must honor ctx between phases so
// a shutdown or a superseding drift signal can cancel it mid-epoch.
type TrainFunc func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error)

// Train runs build under guard.Safe on its own goroutine and waits for
// either the result or ctx cancellation. A panicking trainer surfaces as
// a *guard.PanicError instead of taking the loop down; a cancelled ctx
// abandons the training goroutine (it parks on the buffered channel and
// is collected when it finishes) exactly like guard.Planner's watchdog.
func Train(ctx context.Context, component string, build TrainFunc, tc *cardest.Context) (opt.CardEstimator, error) {
	type outcome struct {
		est opt.CardEstimator
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		var est opt.CardEstimator
		err := guard.Safe(component, func() error {
			var berr error
			est, berr = build(ctx, tc)
			return berr
		})
		ch <- outcome{est: est, err: err}
	}()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case out := <-ch:
		if out.err != nil {
			return nil, out.err
		}
		return out.est, nil
	}
}

// Retrain returns the default TrainFunc for a registered estimator: look
// the method up by name, refresh catalog statistics from the (possibly
// drifted) data, and fit it on the refreshed stats plus whatever labels
// the context carries. Context checks between the phases make it
// cancellable mid-epoch.
func Retrain(name string) TrainFunc {
	return func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		est, err := cardest.ByName(name)
		if err != nil {
			return nil, err
		}
		fresh := *tc
		if fresh.Cat != nil {
			fresh.Stats = stats.CollectCatalog(fresh.Cat, stats.Options{Seed: fresh.Seed})
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := est.Train(&fresh); err != nil {
			return nil, err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return est, nil
	}
}
