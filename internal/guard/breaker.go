package guard

import (
	"fmt"
	"sync"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

// Breaker states, the classic three-state machine.
const (
	// Closed: the learned component is consulted normally.
	Closed BreakerState = iota
	// Open: the component is bypassed; the native path serves every
	// query until the cooldown elapses.
	Open
	// HalfOpen: cooldown elapsed; exactly one probe query is allowed
	// through to test whether the component recovered.
	HalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig tunes a Breaker. Zero values select the defaults.
type BreakerConfig struct {
	// FailureThreshold is K: consecutive failures before tripping
	// (default 3).
	FailureThreshold int
	// Cooldown is the number of queries served while Open before the
	// first half-open probe (default 8). Counting queries instead of
	// wall-clock keeps the state machine deterministic for tests and
	// benchmarks.
	Cooldown int
}

const (
	// regressionRatio is the observed/baseline latency ratio beyond which
	// a successfully-executed plan still counts as a failure — the
	// Bao/Eraser regression signal.
	regressionRatio = 10
	// maxCooldown caps the exponential backoff.
	maxCooldown = 512
)

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 8
	}
	return c
}

// Breaker is a per-component circuit breaker. It trips after K
// consecutive failures (errors, panics, timeouts) or observed plan
// regressions beyond a latency ratio, then bypasses the component for an
// exponentially growing cooldown, re-probing with single queries until
// one succeeds. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	cooldown    int // queries remaining before a half-open probe
	backoff     int // current cooldown length (doubles per re-trip)
	trips       int64
	probing     bool // a half-open probe is in flight

	// Cumulative transition counters, exposed via Snapshot so monitors
	// (the drift detector, experiment reports) can read the breaker's
	// history without racing its state machine.
	probes    int64 // half-open probes admitted
	cooldowns int64 // completed cooldowns (Open → HalfOpen transitions)
	successes int64 // Success() outcomes recorded
	failures  int64 // Failure() outcomes recorded
}

// NewBreaker returns a breaker with cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	c := cfg.withDefaults()
	return &Breaker{cfg: c, backoff: c.Cooldown}
}

// Allow reports whether the component may be consulted for the next
// query. While Open it counts down the cooldown; when the cooldown
// reaches zero the breaker moves to HalfOpen and admits exactly one
// probe.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			return false // one probe at a time
		}
		b.probing = true
		b.probes++
		return true
	default: // Open
		if b.cooldown > 0 {
			b.cooldown--
			return false
		}
		b.state = HalfOpen
		b.probing = true
		b.cooldowns++
		b.probes++
		return true
	}
}

// Success records a healthy outcome: a half-open probe closes the
// breaker and resets the backoff; a closed success clears the
// consecutive-failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.successes++
	b.consecFails = 0
	if b.state == HalfOpen {
		b.state = Closed
		b.backoff = b.cfg.Cooldown
	}
	b.probing = false
}

// Failure records an error/panic/timeout outcome. K consecutive failures
// trip a closed breaker; a failed half-open probe re-opens with doubled
// cooldown (exponential backoff, capped).
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	b.probing = false
	switch b.state {
	case HalfOpen:
		b.backoff *= 2
		b.backoff = min(b.backoff, maxCooldown)
		b.trip()
	case Closed:
		b.consecFails++
		if b.consecFails >= b.cfg.FailureThreshold {
			b.trip()
		}
	}
}

// ObserveLatency records a successfully executed plan's latency against
// the native baseline for the same query. Ratios beyond the regression
// threshold count as failures (the component is hurting, not helping);
// healthy ratios, and any latency against a zero baseline, count as
// successes.
func (b *Breaker) ObserveLatency(observed, baseline float64) {
	if baseline > 0 && observed/baseline > regressionRatio {
		b.Failure()
		return
	}
	b.Success()
}

// trip opens the breaker; callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.cooldown = b.backoff
	b.consecFails = 0
	b.trips++
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// BreakerSnapshot is a consistent point-in-time view of a breaker: its
// current position plus the cumulative transition counters. Monitors (the
// adapt drift detector, the E10/E15 reports) consume snapshots instead of
// poking individual getters, so one lock acquisition yields one coherent
// picture.
type BreakerSnapshot struct {
	State             BreakerState
	ConsecFails       int   // consecutive failures while Closed
	CooldownRemaining int   // queries left before the next half-open probe
	Backoff           int   // current cooldown length (doubles per re-trip)
	Trips             int64 // times the breaker opened
	Probes            int64 // half-open probes admitted
	Cooldowns         int64 // completed cooldowns (Open → HalfOpen)
	Successes         int64 // Success outcomes recorded
	Failures          int64 // Failure outcomes recorded
}

// Snapshot returns the breaker's current state and counters atomically.
func (b *Breaker) Snapshot() BreakerSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerSnapshot{
		State:             b.state,
		ConsecFails:       b.consecFails,
		CooldownRemaining: b.cooldown,
		Backoff:           b.backoff,
		Trips:             b.trips,
		Probes:            b.probes,
		Cooldowns:         b.cooldowns,
		Successes:         b.successes,
		Failures:          b.failures,
	}
}
