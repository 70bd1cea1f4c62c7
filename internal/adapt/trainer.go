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
// executed plans: one cardest.Sample per distinct sub-query, bounded FIFO.
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

// ObserveExec harvests one label per node of an executed,
// TrueCard-annotated plan — the same feed opt.HarvestCards taps, but
// accumulated across queries into a training set.
func (c *Collector) ObserveExec(q *query.Query, executed *plan.Node) {
	g := query.NewJoinGraph(q)
	executed.WalkLogicalMasks(g, func(n *plan.Node, mask uint64) {
		c.Add(g.Sub(mask), n.TrueCard)
	})
}

// Add records (or refreshes) the true cardinality of one sub-query.
func (c *Collector) Add(q *query.Query, card float64) {
	k := q.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq, ok := c.index[k]; ok {
		c.samples[seq-c.base].Card = card
		return
	}
	if len(c.samples) >= c.cap {
		delete(c.index, c.samples[0].Q.Key())
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
