package adapt

import (
	"context"
	"math"
	"sync"

	"lqo/internal/cardest"
	"lqo/internal/data"
	"lqo/internal/guard"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/workload"
)

// Action is what one loop tick did (or why it did nothing).
type Action string

// Tick outcomes.
const (
	ActionNone         Action = "none"          // detector sees no drift
	ActionProbation    Action = "probation"     // post-swap probation still running
	ActionAccepted     Action = "accepted"      // probation passed; swap is permanent
	ActionRollback     Action = "rollback"      // probation failed; incumbent restored
	ActionBreakerOpen  Action = "breaker-open"  // promotion breaker is cooling down
	ActionNeedSamples  Action = "need-samples"  // drift flagged, label pool too small
	ActionNoHoldout    Action = "no-holdout"    // drift flagged, no holdout to gate on
	ActionTrainFailed  Action = "train-failed"  // candidate training errored/panicked
	ActionGateRejected Action = "gate-rejected" // candidate failed the regression gate
	ActionSwapped      Action = "swapped"       // candidate published, probation begins
)

// Config tunes the adaptation loop. Zero values select defaults.
type Config struct {
	// Seed derives per-round training seeds (retraining stays
	// deterministic across identical traffic).
	Seed int64
	// Component names the loop for guard.Safe panic reports
	// (default "adapt").
	Component string
	// Cat is the live catalog candidates retrain against.
	Cat *data.Catalog
	// Train builds candidates (default Retrain("histogram")).
	Train TrainFunc
	// Detector tunes the drift monitor.
	Detector DetectorConfig
	// Gate tunes the regression gate (applied by the Gate passed to
	// NewLoop; kept here only when the loop constructs its own).
	Gate GateConfig
	// Promote configures the promotion breaker: gate rejections and
	// rollbacks count as failures, accepted probations as successes, so
	// repeated bad candidates stop being attempted for a cooldown
	// (measured in loop ticks). Default: FailureThreshold 2, Cooldown 8.
	Promote guard.BreakerConfig
	// MinSamples is the label-pool size required before retraining
	// (default 32).
	MinSamples int
	// SampleCap bounds the label pool (default 8192).
	SampleCap int
	// Probation is how many observed queries after a swap the live
	// q-error is audited before the swap is accepted (default 16).
	Probation int
	// RollbackRatio rolls the swap back when the probation-window
	// geometric-mean q-error exceeds RollbackRatio × the pre-swap level:
	// the candidate had to beat the degraded incumbent it replaced
	// (default 1.0).
	RollbackRatio float64
	// AbsRollbackQ rolls back outright when the probation geo q-error
	// exceeds this bound regardless of the pre-swap level (default 32).
	AbsRollbackQ float64
}

func (c Config) withDefaults() Config {
	if c.Component == "" {
		c.Component = "adapt"
	}
	if c.Train == nil {
		c.Train = Retrain("histogram")
	}
	if c.Promote.FailureThreshold == 0 {
		c.Promote.FailureThreshold = 2
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 32
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 8192
	}
	if c.Probation <= 0 {
		c.Probation = 16
	}
	if c.RollbackRatio <= 0 {
		c.RollbackRatio = 1.0
	}
	if c.AbsRollbackQ <= 1 {
		c.AbsRollbackQ = 32
	}
	return c
}

// LoopStats is a snapshot of the loop's counters and sub-components.
type LoopStats struct {
	Rounds        int64 // retraining rounds attempted
	Swaps         int64 // candidates published (gate passed)
	Accepted      int64 // swaps surviving probation
	Rollbacks     int64 // swaps reverted by probation
	GateRejects   int64 // candidates the gate refused
	TrainFailures int64 // training errors/panics
	Probation     bool  // a probation window is currently running
	Labels        int   // current label-pool size
	Detector      DetectorSnapshot
	Breaker       guard.BreakerSnapshot
	LastVerdict   *Verdict // most recent gate verdict (nil before any)
}

// Loop is the closed adaptation loop: it implements serve.ExecObserver to
// ingest live execution feedback, and Tick advances the state machine —
// detect drift, retrain off the hot path, gate, hot-swap, audit probation,
// roll back. Deterministic for a given traffic sequence: no wall clock,
// no unseeded randomness; call Tick after each observation (as E15 does)
// or run Start for a background goroutine woken by observations.
type Loop struct {
	cfg  Config
	sw   *Swappable
	host Host
	gate *Gate
	det  *Detector
	col  *Collector
	brk  *guard.Breaker

	mu         sync.Mutex
	holdout    []workload.Labeled
	probation  bool
	probLeft   int
	probLogSum float64
	probN      int
	preSwapGeo float64
	prev       opt.CardEstimator
	round      int64
	stats      LoopStats

	notify chan struct{}
}

// NewLoop wires the loop around a swappable estimator, its serving host,
// and a regression gate.
func NewLoop(sw *Swappable, host Host, gate *Gate, cfg Config) *Loop {
	c := cfg.withDefaults()
	return &Loop{
		cfg:    c,
		sw:     sw,
		host:   host,
		gate:   gate,
		det:    NewDetector(c.Detector),
		col:    NewCollector(c.SampleCap),
		brk:    guard.NewBreaker(c.Promote),
		notify: make(chan struct{}, 1),
	}
}

// Detector exposes the drift monitor (read-only use expected).
func (l *Loop) Detector() *Detector { return l.det }

// Collector exposes the label pool (read-only use expected).
func (l *Loop) Collector() *Collector { return l.col }

// SetHoldout installs the held-out labeled query log the gate judges
// candidates on. Call whenever a fresh labeled log is available; the gate
// always uses the latest.
func (l *Loop) SetHoldout(h []workload.Labeled) {
	cp := make([]workload.Labeled, len(h))
	copy(cp, h)
	l.mu.Lock()
	l.holdout = cp
	l.mu.Unlock()
}

// NoteTrip forwards a serving-side breaker trip into the drift detector.
func (l *Loop) NoteTrip() { l.det.NoteTrip() }

// ObserveExec implements serve.ExecObserver: per-node q-errors feed the
// drift detector (and the probation audit when one is running), per-node
// true cards feed the label pool, and a non-blocking notify wakes a
// Start-ed background loop.
func (l *Loop) ObserveExec(q *query.Query, executed *plan.Node) {
	l.det.ObservePlan(q, executed)
	l.col.ObserveExec(q, executed)
	l.mu.Lock()
	if l.probation {
		executed.WalkLogical(func(n *plan.Node) {
			qe := metrics.QError(n.EstCard, n.TrueCard)
			l.probLogSum += math.Log(qe)
			l.probN++
		})
		l.probLeft--
	}
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

// Tick advances the loop one step. The sequence of Actions is a pure
// function of the observation history, making experiments and tests
// reproducible. The promotion invariant lives here: Publish is reachable
// only after a passing gate verdict (promotion) or from the rollback arm
// (restoring the previous incumbent).
func (l *Loop) Tick(ctx context.Context) (Action, error) {
	if err := ctx.Err(); err != nil {
		return ActionNone, err
	}

	// Probation first: a pending swap must be judged before anything else.
	l.mu.Lock()
	if l.probation {
		if l.probLeft > 0 {
			l.mu.Unlock()
			return ActionProbation, nil
		}
		liveGeo := 1.0
		if l.probN > 0 {
			liveGeo = math.Exp(l.probLogSum / float64(l.probN))
		}
		prev := l.prev
		l.probation = false
		l.prev = nil
		if liveGeo > l.cfg.RollbackRatio*l.preSwapGeo || liveGeo > l.cfg.AbsRollbackQ {
			l.stats.Rollbacks++
			l.mu.Unlock()
			l.sw.Publish(prev)
			l.host.FlushPlans()
			l.host.ResetFeedback()
			l.col.Reset()
			l.brk.Failure()
			return ActionRollback, nil
		}
		l.stats.Accepted++
		l.mu.Unlock()
		l.det.Rebase()
		l.brk.Success()
		return ActionAccepted, nil
	}
	holdout := l.holdout
	l.mu.Unlock()

	if !l.det.Stale() {
		return ActionNone, nil
	}
	if l.col.Len() < l.cfg.MinSamples {
		return ActionNeedSamples, nil
	}
	if len(holdout) == 0 {
		return ActionNoHoldout, nil
	}
	// Allow gates the expensive part AND counts the open-state cooldown
	// down one tick; every admitted attempt ends in Failure (train error,
	// gate reject, later rollback) or Success (probation accepted).
	if !l.brk.Allow() {
		return ActionBreakerOpen, nil
	}

	l.mu.Lock()
	l.round++
	round := l.round
	l.stats.Rounds++
	l.mu.Unlock()

	tc := &cardest.Context{Cat: l.cfg.Cat, Train: l.col.Samples(), Seed: l.cfg.Seed + round}
	cand, err := Train(ctx, l.cfg.Component, l.cfg.Train, tc)
	if err != nil {
		l.mu.Lock()
		l.stats.TrainFailures++
		l.mu.Unlock()
		l.brk.Failure()
		if ctx.Err() != nil {
			return ActionTrainFailed, err
		}
		return ActionTrainFailed, nil
	}

	verdict, err := l.gate.Validate(ctx, holdout, l.sw.Current(), cand)
	if err != nil {
		l.mu.Lock()
		l.stats.GateRejects++
		l.mu.Unlock()
		l.brk.Failure()
		if ctx.Err() != nil {
			return ActionGateRejected, err
		}
		return ActionGateRejected, nil
	}
	l.mu.Lock()
	l.stats.LastVerdict = verdict
	l.mu.Unlock()
	if !verdict.Promote {
		l.mu.Lock()
		l.stats.GateRejects++
		l.mu.Unlock()
		l.brk.Failure()
		return ActionGateRejected, nil
	}

	// Promotion: atomic publish, then make the serving layer forget the
	// old model's world (cached plans, harvested feedback, label pool).
	preGeo := l.det.RecentGeoQ()
	prev := l.sw.Publish(cand)
	l.host.FlushPlans()
	l.host.ResetFeedback()
	l.col.Reset()
	l.mu.Lock()
	l.probation = true
	l.probLeft = l.cfg.Probation
	l.probLogSum = 0
	l.probN = 0
	l.preSwapGeo = preGeo
	l.prev = prev
	l.stats.Swaps++
	l.mu.Unlock()
	return ActionSwapped, nil
}

// Stats returns a snapshot of the loop.
func (l *Loop) Stats() LoopStats {
	l.mu.Lock()
	s := l.stats
	s.Probation = l.probation
	l.mu.Unlock()
	s.Labels = l.col.Len()
	s.Detector = l.det.Snapshot()
	s.Breaker = l.brk.Snapshot()
	return s
}

// Start runs the loop on a background goroutine woken by observations
// (ObserveExec's notify) until ctx is cancelled. The returned channel
// closes when the goroutine exits. Serving deployments use Start;
// experiments call Tick synchronously for determinism.
func (l *Loop) Start(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-ctx.Done():
				return
			case <-l.notify:
				if _, err := l.Tick(ctx); err != nil {
					return
				}
			}
		}
	}()
	return done
}
