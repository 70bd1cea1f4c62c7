package adapt

import (
	"context"
	"sync"
	"testing"

	"lqo/internal/cardest"
	"lqo/internal/datagen"
	"lqo/internal/guard"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// fakeHost counts the serving-side invalidations the loop must perform on
// every swap and rollback.
type fakeHost struct {
	mu      sync.Mutex
	flushes int
	resets  int
}

func (h *fakeHost) FlushPlans() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.flushes++
	return 0
}

func (h *fakeHost) ResetFeedback() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.resets++
	return 0
}

func (h *fakeHost) counts() (int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.flushes, h.resets
}

// drive plans and executes one labeled query through the fixture's
// swappable-backed optimizer and feeds the loop, exactly like the serving
// layer's observer hook would.
func drive(t *testing.T, f *fixture, l *Loop, w workload.Labeled) {
	t.Helper()
	p, err := f.opt.OptimizeCtx(context.Background(), w.Q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.ex.RunCtx(context.Background(), w.Q, p)
	if err != nil {
		t.Fatal(err)
	}
	l.ObserveRun(query.NewJoinGraph(w.Q), p, res.Cards)
}

func smallLoopConfig(f *fixture) Config {
	return Config{
		Seed:     7,
		Cat:      f.cat,
		Detector: DetectorConfig{Baseline: 12, Window: 12, Ratio: 2, AbsQ: 16},
		Promote:  guard.BreakerConfig{FailureThreshold: 2, Cooldown: 4},
		// The promotion breaker only hears explicit Success/Failure from
		// the loop, never latencies.
		MinSamples: 8,
		Probation:  4,
	}
}

// TestLoopNeverPromotesUngatedCandidate is the first required chaos case:
// a trainer that only ever produces garbage, judged by the default gate,
// must never reach Publish no matter how hard drift pushes — only
// GateRejects accumulate, and the promotion breaker eventually stops the
// attempts entirely.
func TestLoopNeverPromotesUngatedCandidate(t *testing.T) {
	f := newFixture(t)
	incumbent := f.sw.Current()
	host := &fakeHost{}
	cfg := smallLoopConfig(f)
	cfg.Train = func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error) {
		return garbageEstimator{card: 1e9}, nil
	}
	loop := NewLoop(f.sw, host, NewGate(f.opt, f.ex, GateConfig{}), cfg)
	loop.SetHoldout(f.labeled(t, 301, 10))

	traffic := f.labeled(t, 303, 8)
	for _, w := range traffic {
		drive(t, f, loop, w)
	}
	datagen.ApplyDrift(f.cat, datagen.DriftOptions{Seed: 5, Fraction: 1.0, ValueSkew: 2.5, DomainShift: 0.6})
	// Force the drift flag by filling both detector windows with the worst
	// q-error, so the test exercises the promotion invariant regardless of
	// how hard this particular drift moves this particular traffic's
	// q-errors.
	for i := 0; i < cfg.Detector.Baseline+cfg.Detector.Window; i++ {
		loop.det.Observe(metrics.MaxQError)
	}

	sawReject, sawBreakerOpen := false, false
	for round := 0; round < 6; round++ {
		for _, w := range traffic {
			drive(t, f, loop, w)
			act, err := loop.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			switch act {
			case ActionSwapped, ActionProbation, ActionAccepted, ActionRollback:
				t.Fatalf("garbage candidate reached promotion machinery: %s", act)
			case ActionGateRejected:
				sawReject = true
			case ActionBreakerOpen:
				sawBreakerOpen = true
			}
		}
	}
	st := loop.Stats()
	if !sawReject || st.GateRejects == 0 {
		t.Fatalf("gate never rejected: %+v", st)
	}
	if !sawBreakerOpen || st.Breaker.Trips == 0 {
		t.Fatalf("promotion breaker never opened on repeated bad candidates: %+v", st.Breaker)
	}
	if st.Swaps != 0 {
		t.Fatalf("Swaps = %d, want 0", st.Swaps)
	}
	if f.sw.Current() != incumbent {
		t.Fatal("incumbent estimator was replaced without a passing gate verdict")
	}
	if fl, _ := host.counts(); fl != 0 {
		t.Fatalf("host flushed %d times with no promotion", fl)
	}
}

// TestLoopRollsBackDegradingCandidate is the second required chaos case: a
// deliberately permissive gate lets a garbage candidate through, and the
// probation window must catch the live degradation and restore the
// incumbent — with the rollback feeding the promotion breaker so the
// second bad promotion is the last one attempted for a cooldown.
func TestLoopRollsBackDegradingCandidate(t *testing.T) {
	f := newFixture(t)
	incumbent := f.sw.Current()
	host := &fakeHost{}
	cfg := smallLoopConfig(f)
	cfg.Train = func(ctx context.Context, tc *cardest.Context) (opt.CardEstimator, error) {
		return garbageEstimator{card: 1e9}, nil
	}
	// Gate wide open: every candidate passes — the probation window is the
	// only line of defense left.
	permissive := NewGate(f.opt, f.ex, GateConfig{MaxGMRL: 1e12, RelBound: 1e12, QErrBound: 1e12, QErrRatio: 1e12, MinHoldout: 1})
	loop := NewLoop(f.sw, host, permissive, cfg)
	loop.SetHoldout(f.labeled(t, 401, 4))

	traffic := f.labeled(t, 403, 8)
	for _, w := range traffic {
		drive(t, f, loop, w)
	}
	datagen.ApplyDrift(f.cat, datagen.DriftOptions{Seed: 6, Fraction: 1.0, ValueSkew: 2.5, DomainShift: 0.6})

	var acts []Action
	rolledBack := false
	for round := 0; round < 8 && !rolledBack; round++ {
		for _, w := range traffic {
			drive(t, f, loop, w)
			act, err := loop.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			acts = append(acts, act)
			if act == ActionAccepted {
				t.Fatalf("garbage candidate survived probation; actions: %v", acts)
			}
			if act == ActionRollback {
				rolledBack = true
				break
			}
		}
	}
	if !rolledBack {
		t.Fatalf("no rollback within probation; actions: %v", acts)
	}
	st := loop.Stats()
	if st.Swaps == 0 || st.Rollbacks == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if f.sw.Current() != incumbent {
		t.Fatal("rollback did not restore the incumbent estimator")
	}
	// Swap and rollback each invalidate the serving layer.
	fl, rs := host.counts()
	if fl < 2 || rs < 2 {
		t.Fatalf("host invalidations: flushes %d resets %d, want >= 2 each", fl, rs)
	}
	// The rollback counted as a promotion failure.
	if st.Breaker.Failures == 0 {
		t.Fatalf("rollback not recorded on the promotion breaker: %+v", st.Breaker)
	}

	// Keep injecting: the second rollback trips the breaker (threshold 2)
	// and further attempts are refused while it cools down.
	sawOpen := false
	for round := 0; round < 10 && !sawOpen; round++ {
		for _, w := range traffic {
			drive(t, f, loop, w)
			act, err := loop.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if act == ActionBreakerOpen {
				sawOpen = true
				break
			}
			if act == ActionAccepted {
				t.Fatal("garbage candidate accepted on retry")
			}
		}
	}
	if !sawOpen {
		t.Fatal("promotion breaker never opened after repeated rollbacks")
	}
	if f.sw.Current() != incumbent {
		t.Fatal("incumbent lost during repeated bad promotions")
	}
}

// TestLoopAdaptsToDrift is the happy path: real drift, real retraining
// (histogram over refreshed statistics), default gate — the loop should
// detect, retrain, pass the gate, swap, and accept the swap after a clean
// probation, leaving the serving estimator measurably better on drifted
// data than the frozen incumbent it replaced.
func TestLoopAdaptsToDrift(t *testing.T) {
	f := newFixture(t)
	incumbent := f.sw.Current()
	host := &fakeHost{}
	cfg := smallLoopConfig(f)
	loop := NewLoop(f.sw, host, NewGate(f.opt, f.ex, GateConfig{}), cfg)

	traffic := f.labeled(t, 503, 8)
	for _, w := range traffic {
		drive(t, f, loop, w)
	}
	datagen.ApplyDrift(f.cat, datagen.DriftOptions{Seed: 8, Fraction: 1.0, ValueSkew: 2.5, DomainShift: 0.6})
	// Post-drift holdout with post-drift truth: the gate judges candidates
	// in the world they would serve.
	loop.SetHoldout(f.labeled(t, 501, 10))
	postTraffic := f.labeled(t, 505, 12)

	var acts []Action
	accepted := false
	for round := 0; round < 10 && !accepted; round++ {
		for _, w := range postTraffic {
			drive(t, f, loop, w)
			act, err := loop.Tick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			acts = append(acts, act)
			if act == ActionAccepted {
				accepted = true
				break
			}
			if act == ActionRollback {
				t.Fatalf("healthy retrained candidate rolled back; actions: %v", acts)
			}
		}
	}
	if !accepted {
		t.Fatalf("loop never accepted a retrained candidate; actions: %v, stats %+v", acts, loop.Stats())
	}
	st := loop.Stats()
	if st.Swaps != 1 || st.Accepted != 1 || st.Rollbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if f.sw.Current() == incumbent {
		t.Fatal("accepted swap but estimator unchanged")
	}
	if st.LastVerdict == nil || !st.LastVerdict.Promote {
		t.Fatalf("verdict = %+v", st.LastVerdict)
	}
	// Detector rebased into the new regime.
	if st.Detector.Stale {
		t.Fatalf("detector still stale after accepted swap: %+v", st.Detector)
	}
	fl, rs := host.counts()
	if fl != 1 || rs != 1 {
		t.Fatalf("host invalidations: flushes %d resets %d, want 1 each", fl, rs)
	}
}
