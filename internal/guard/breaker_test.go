package guard

import "testing"

func TestBreakerTripsAfterKConsecutiveFailures(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: 4})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker must allow (i=%d)", i)
		}
		b.Failure()
	}
	if b.Snapshot().State != Closed {
		t.Fatalf("state after 2 failures = %v, want closed", b.Snapshot().State)
	}
	b.Allow()
	b.Failure() // third consecutive → trip
	if b.Snapshot().State != Open {
		t.Fatalf("state after 3 failures = %v, want open", b.Snapshot().State)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3})
	b.Failure()
	b.Failure()
	b.Success() // streak broken
	b.Failure()
	b.Failure()
	if b.Snapshot().State != Closed {
		t.Fatalf("state = %v, want closed (streak was reset)", b.Snapshot().State)
	}
}

func TestBreakerCooldownThenHalfOpenProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 3})
	b.Allow()
	b.Failure() // trip
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("open breaker allowed during cooldown (i=%d)", i)
		}
	}
	// Cooldown (3 bypassed queries) exhausted → half-open, one probe admitted.
	if !b.Allow() {
		t.Fatal("cooldown elapsed: probe must be admitted")
	}
	if b.Snapshot().State != HalfOpen {
		t.Fatalf("state = %v, want half-open", b.Snapshot().State)
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe must be rejected")
	}
	b.Success()
	if b.Snapshot().State != Closed {
		t.Fatalf("state after probe success = %v, want closed", b.Snapshot().State)
	}
}

func TestBreakerExponentialBackoff(t *testing.T) {
	// From a base of 128 the backoff doubles to the 512 cap in two
	// failed probes.
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: 128})
	countCooldown := func() int {
		t.Helper()
		n := 0
		for i := 0; i < 1000; i++ {
			if b.Allow() {
				return n
			}
			n++
		}
		t.Fatal("cooldown never elapsed")
		return 0
	}

	b.Allow()
	b.Failure() // trip #1, cooldown 128
	if got := countCooldown(); got != 128 {
		t.Fatalf("first cooldown = %d, want 128", got)
	}
	b.Failure() // failed probe → backoff 256
	if got := countCooldown(); got != 256 {
		t.Fatalf("second cooldown = %d, want 256", got)
	}
	b.Failure() // failed probe → backoff 512 (cap)
	if got := countCooldown(); got != 512 {
		t.Fatalf("third cooldown = %d, want 512", got)
	}
	b.Failure() // failed probe → capped at 512
	if got := countCooldown(); got != 512 {
		t.Fatalf("capped cooldown = %d, want 512", got)
	}
	if b.Trips() != 4 {
		t.Fatalf("trips = %d, want 4", b.Trips())
	}
	// A successful probe closes and resets the backoff to the base.
	b.Success()
	if b.Snapshot().State != Closed {
		t.Fatalf("state = %v, want closed", b.Snapshot().State)
	}
	b.Allow()
	b.Failure() // trip again: cooldown must be back to base 128
	if got := countCooldown(); got != 128 {
		t.Fatalf("post-recovery cooldown = %d, want 128 (backoff reset)", got)
	}
}

func TestBreakerObserveLatencyRegression(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	b.ObserveLatency(50, 10) // 5x: fine
	if b.Snapshot().State != Closed {
		t.Fatalf("state = %v after healthy ratio", b.Snapshot().State)
	}
	b.ObserveLatency(200, 10) // 20x: regression
	b.ObserveLatency(500, 10) // 50x: regression → trip at K=2
	if b.Snapshot().State != Open {
		t.Fatalf("state = %v, want open after 2 regressions", b.Snapshot().State)
	}
	// Zero baseline cannot be judged → success.
	b3 := NewBreaker(BreakerConfig{FailureThreshold: 1})
	b3.ObserveLatency(100, 0)
	if b3.Snapshot().State != Closed {
		t.Fatalf("zero baseline tripped breaker: %v", b3.Snapshot().State)
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("state strings wrong")
	}
}

func TestBreakerSnapshotCountsTransitions(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: 2})
	s := b.Snapshot()
	if s.State != Closed || s.Trips != 0 || s.Probes != 0 || s.Failures != 0 {
		t.Fatalf("fresh snapshot = %+v", s)
	}

	b.Allow()
	b.Failure()
	s = b.Snapshot()
	if s.ConsecFails != 1 || s.Failures != 1 || s.State != Closed {
		t.Fatalf("after one failure: %+v", s)
	}

	b.Allow()
	b.Failure() // trip
	s = b.Snapshot()
	if s.State != Open || s.Trips != 1 || s.CooldownRemaining != 2 || s.Backoff != 2 {
		t.Fatalf("after trip: %+v", s)
	}
	if s.ConsecFails != 0 {
		t.Fatalf("trip must clear the streak: %+v", s)
	}

	// Cooldown counts down through bypassed queries.
	b.Allow()
	if got := b.Snapshot().CooldownRemaining; got != 1 {
		t.Fatalf("cooldown remaining = %d, want 1", got)
	}
	b.Allow()

	// Cooldown elapsed: the next Allow admits a probe and records the
	// Open → HalfOpen transition.
	if !b.Allow() {
		t.Fatal("probe must be admitted after cooldown")
	}
	s = b.Snapshot()
	if s.State != HalfOpen || s.Probes != 1 || s.Cooldowns != 1 {
		t.Fatalf("after probe admission: %+v", s)
	}

	// Failed probe: re-trip with doubled backoff, failure counted.
	b.Failure()
	s = b.Snapshot()
	if s.State != Open || s.Trips != 2 || s.Backoff != 4 || s.Failures != 3 {
		t.Fatalf("after failed probe: %+v", s)
	}

	// Serve out the doubled cooldown, then a successful probe closes.
	for i := 0; i < 4; i++ {
		if b.Allow() {
			t.Fatalf("allowed during doubled cooldown (i=%d)", i)
		}
	}
	if !b.Allow() {
		t.Fatal("second probe must be admitted")
	}
	b.Success()
	s = b.Snapshot()
	if s.State != Closed || s.Probes != 2 || s.Cooldowns != 2 || s.Successes != 1 {
		t.Fatalf("after recovery: %+v", s)
	}
	if s.Backoff != 2 {
		t.Fatalf("recovery must reset backoff to the base cooldown: %+v", s)
	}
}
