// Package adapt closes the loop the tutorial's deployment section leaves
// open: learned optimizer components silently rot under data and workload
// drift, and the field's answer (Lehmann et al.'s regression focus, the
// dynamic-data findings of the "Are We Ready?" studies) is not to retrain
// blindly but to retrain *safely*. The package wires three pieces into an
// adaptation loop, advanced one step per caller's Loop.Tick, that keeps a
// serving deployment's estimator good without ever making it worse:
//
//   - Detector: a windowed monitor over serving-layer execution feedback
//     (per-sub-plan q-errors) with a deterministic threshold test —
//     observation-counted, no wall clock, so the same traffic always
//     flags at the same query.
//   - Trainer: retrains candidate estimators off the hot path from
//     harvested true-card labels and fresh statistics, panic-isolated via
//     guard.Safe and cancellable between training phases.
//   - Gate + probation: an Eraser-style regression gate replays a held-out
//     query log candidate-vs-incumbent and promotes only on improvement
//     with no per-query regression; the hot-swap is an atomic pointer
//     publish; a post-swap probation window auto-rolls-back on live
//     degradation; and a promotion breaker stops repeated bad candidates.
//
// The serving layer stays decoupled: serve.Server feeds the loop through
// its ExecObserver hook and exposes FlushPlans/ResetFeedback (the Host
// interface here), so adapt never imports serve.
package adapt

import (
	"context"
	"sync/atomic"

	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/query"
)

// Host is the serving-side surface the loop needs on hot-swap: dropping
// cached plans (they embody the replaced model's estimates) and clearing
// harvested feedback (stale truths must not seed the new regime's
// replans). *serve.Server satisfies it.
type Host interface {
	FlushPlans() int
	ResetFeedback() int
}

// estBox wraps the estimator so the atomic pointer always swaps one
// indirection regardless of the concrete estimator's dynamic type.
type estBox struct {
	est opt.CardEstimator
}

// Swappable is a hot-swappable cardinality estimator: an atomic-pointer
// cell satisfying opt.CardEstimator. The serving optimizer holds the
// Swappable; the adaptation loop publishes gated candidates into it.
// Readers never block and always see either the old or the new estimator,
// never a mix.
type Swappable struct {
	ptr atomic.Pointer[estBox]
}

// NewSwappable returns a Swappable currently serving est.
func NewSwappable(est opt.CardEstimator) *Swappable {
	s := &Swappable{}
	s.ptr.Store(&estBox{est: est})
	return s
}

// Estimate implements opt.CardEstimator by forwarding to the currently
// published estimator, clamping like every serving-path estimate.
func (s *Swappable) Estimate(q *query.Query) float64 {
	return metrics.ClampCard(s.ptr.Load().est.Estimate(q))
}

// EstimateGraph implements opt.GraphEstimator by asking the currently
// published estimator (opt.EstimateGraph), loaded once so that every mask
// of the graph comes from one model, clamping like Estimate.
func (s *Swappable) EstimateGraph(ctx context.Context, g *query.JoinGraph, cards []float64) error {
	if err := opt.EstimateGraph(ctx, s.ptr.Load().est, g, cards); err != nil {
		return err
	}
	for m, c := range cards {
		cards[m] = metrics.ClampCard(c)
	}
	return nil
}

// Current returns the currently published estimator.
func (s *Swappable) Current() opt.CardEstimator {
	return s.ptr.Load().est
}

// Publish atomically installs est and returns the estimator it replaced.
// Only the adaptation loop calls this — after the regression gate passed
// (promotion) or to restore the incumbent (rollback).
func (s *Swappable) Publish(est opt.CardEstimator) opt.CardEstimator {
	prev := s.ptr.Swap(&estBox{est: est})
	return prev.est
}
