package serve

import (
	"context"
	"errors"
	"sync"

	"lqo/internal/guard"
)

// ErrOverloaded rejects an arrival whose tenant already has every
// execution slot busy and a full wait queue.
var ErrOverloaded = errors.New("serve: tenant overloaded (queue full)")

// ErrShed rejects an arrival whose tenant's circuit breaker is open:
// recent requests kept failing and the tenant is cooling down.
var ErrShed = errors.New("serve: tenant shed (circuit breaker open)")

// Per-tenant admission limits.
const (
	tenantSlots = 16 // concurrent executions
	tenantQueue = 64 // requests waiting once the slots are full
)

// admission is per-tenant flow control: tenantSlots bounds concurrent
// executions, a queue of tenantQueue absorbs bursts, and a guard.Breaker
// with guard's defaults sheds tenants whose requests keep failing.
// Tenants are isolated — one tenant's burst or failure streak never
// consumes another's slots.
type admission struct {
	mu       sync.Mutex
	tenants  map[string]*tenantState
	rejected int64
	shed     int64
}

type tenantState struct {
	sem     chan struct{} // buffered; a token = one execution slot
	breaker *guard.Breaker

	mu      sync.Mutex
	waiting int // arrivals blocked on sem
}

func newAdmission() *admission {
	return &admission{tenants: make(map[string]*tenantState)}
}

func (a *admission) tenant(name string) *tenantState {
	a.mu.Lock()
	defer a.mu.Unlock()
	ts, ok := a.tenants[name]
	if !ok {
		ts = &tenantState{
			sem:     make(chan struct{}, tenantSlots),
			breaker: guard.NewBreaker(guard.BreakerConfig{}),
		}
		a.tenants[name] = ts
	}
	return ts
}

// acquire admits one request for tenant, blocking (queue permitting)
// until an execution slot frees or ctx is done. On success it returns a
// release func the caller must invoke when the request finishes, plus
// the tenant's breaker for the caller to record Success/Failure on.
func (a *admission) acquire(ctx context.Context, tenant string) (func(), *guard.Breaker, error) {
	ts := a.tenant(tenant)
	if !ts.breaker.Allow() {
		a.mu.Lock()
		a.shed++
		a.mu.Unlock()
		return nil, nil, ErrShed
	}
	release := func() { <-ts.sem }
	// Fast path: a slot is free right now.
	select {
	case ts.sem <- struct{}{}:
		return release, ts.breaker, nil
	default:
	}
	// Slow path: join the bounded queue or get rejected.
	ts.mu.Lock()
	if ts.waiting >= tenantQueue {
		ts.mu.Unlock()
		a.mu.Lock()
		a.rejected++
		a.mu.Unlock()
		return nil, nil, ErrOverloaded
	}
	ts.waiting++
	ts.mu.Unlock()
	defer func() {
		ts.mu.Lock()
		ts.waiting--
		ts.mu.Unlock()
	}()
	select {
	case ts.sem <- struct{}{}:
		return release, ts.breaker, nil
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	}
}

// stats snapshots the rejection counters.
func (a *admission) stats() (rejected, shed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected, a.shed
}
