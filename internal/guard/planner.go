package guard

import (
	"context"
	"sync"
	"time"

	"lqo/internal/learnedopt"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// PlannerStats counts a guarded planner's outcomes. All fields are
// cumulative since construction.
type PlannerStats struct {
	Served       int64 // total Plan decisions
	Learned      int64 // served by the learned component
	Fallbacks    int64 // served by the native optimizer
	BreakerSkips int64 // learned bypassed because the breaker was open
	Timeouts     int64 // learned exceeded its decision budget
	Panics       int64 // learned panicked (recovered)
	Errors       int64 // learned returned an error
}

// Planner wraps a learned query optimizer with the full guardrail stack:
// panic isolation, a per-decision timeout, a circuit breaker, and
// graceful fallback to the native volcano optimizer. The contract is the
// tutorial's deployment requirement: a broken learned component may
// degrade plan quality, but every query is answered.
type Planner struct {
	// Learned is the component being guarded.
	Learned learnedopt.Optimizer
	// Native is the fallback — the traditional optimizer that must
	// always be able to plan.
	Native *opt.Optimizer
	// Breaker, when non-nil, gates the learned component. Trips stop
	// consultation entirely until the cooldown elapses.
	Breaker *Breaker
	// Timeout bounds one learned Plan call (0 = no budget). The learned
	// call runs on a watchdog goroutine; on overrun the query proceeds
	// natively and the goroutine is abandoned to finish on its own — it
	// holds no locks and its result channel is buffered, so it exits
	// cleanly whenever the stalled call returns. Wait joins it.
	Timeout time.Duration

	mu       sync.Mutex
	stats    PlannerStats
	inflight sync.WaitGroup // learned calls not yet returned
}

// Wait blocks until every learned call Plan started has returned,
// abandoned ones included, so none outlives the query it served.
func (g *Planner) Wait() { g.inflight.Wait() }

// NewPlanner assembles a guarded planner with a default breaker.
func NewPlanner(learned learnedopt.Optimizer, native *opt.Optimizer, timeout time.Duration) *Planner {
	return &Planner{Learned: learned, Native: native, Breaker: NewBreaker(BreakerConfig{}), Timeout: timeout}
}

// Stats returns a snapshot of the outcome counters.
func (g *Planner) Stats() PlannerStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

func (g *Planner) count(f func(*PlannerStats)) {
	g.mu.Lock()
	f(&g.stats)
	g.mu.Unlock()
}

// Plan returns a physical plan for q, and whether the learned component
// produced it. The learned path is attempted only when the breaker
// allows; any failure there (error, panic, timeout, ctx expiry) falls
// back to the native optimizer. An error is returned only when ctx is
// done or the native optimizer itself cannot plan — learned failures
// alone never surface.
func (g *Planner) Plan(ctx context.Context, q *query.Query) (*plan.Node, bool, error) {
	g.count(func(s *PlannerStats) { s.Served++ })
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if g.Learned == nil {
		return g.fallback(ctx, q)
	}
	if g.Breaker != nil && !g.Breaker.Allow() {
		g.count(func(s *PlannerStats) { s.BreakerSkips++ })
		return g.fallback(ctx, q)
	}

	// The budget starts before the call does, so the time it takes to
	// start the call counts against it.
	var timeout <-chan time.Time
	if g.Timeout > 0 {
		t := time.NewTimer(g.Timeout)
		defer t.Stop()
		timeout = t.C
	}

	type planResult struct {
		p   *plan.Node
		err error
	}
	ch := make(chan planResult, 1) // buffered: the watchdog never blocks on send
	g.inflight.Add(1)
	go func() {
		defer g.inflight.Done()
		var p *plan.Node
		err := Safe(g.Learned.Name(), func() error {
			var e error
			p, e = g.Learned.Plan(q)
			return e
		})
		ch <- planResult{p, err}
	}()

	select {
	case r := <-ch:
		if r.err != nil || r.p == nil {
			if _, isPanic := r.err.(*PanicError); isPanic {
				g.count(func(s *PlannerStats) { s.Panics++ })
			} else {
				g.count(func(s *PlannerStats) { s.Errors++ })
			}
			g.fail()
			return g.fallback(ctx, q)
		}
		if g.Breaker != nil {
			g.Breaker.Success()
		}
		g.count(func(s *PlannerStats) { s.Learned++ })
		return r.p, true, nil
	case <-timeout:
		g.count(func(s *PlannerStats) { s.Timeouts++ })
		g.fail()
		return g.fallback(ctx, q)
	case <-ctx.Done():
		// The whole query is out of budget: no plan can be executed
		// anyway, so surface the deadline rather than planning natively.
		g.fail()
		return nil, false, ctx.Err()
	}
}

// ObserveLatency forwards a post-execution latency observation to the
// breaker (regression accounting). learnedServed should be the bool
// returned by Plan; only learned-served latencies are judged.
func (g *Planner) ObserveLatency(learnedServed bool, observed, baseline float64) {
	if g.Breaker == nil || !learnedServed {
		return
	}
	g.Breaker.ObserveLatency(observed, baseline)
}

func (g *Planner) fail() {
	if g.Breaker != nil {
		g.Breaker.Failure()
	}
}

func (g *Planner) fallback(ctx context.Context, q *query.Query) (*plan.Node, bool, error) {
	g.count(func(s *PlannerStats) { s.Fallbacks++ })
	p, err := g.Native.OptimizeCtx(ctx, q)
	return p, false, err
}
