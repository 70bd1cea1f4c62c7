package opt

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"lqo/internal/query"
)

func TestOptimizeCtxPreCanceled(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.opt.OptimizeCtx(ctx, chainQuery()); !errors.Is(err, context.Canceled) {
		t.Fatalf("OptimizeCtx err = %v, want context.Canceled", err)
	}
}

// TestOptimizeCtxBackgroundMatchesOptimize: a live context with a
// deadline that never fires plans exactly what context.Background() plans
// (the context-less Optimize this test once compared against is gone).
func TestOptimizeCtxBackgroundMatchesOptimize(t *testing.T) {
	f := newFixture(t)
	q := chainQuery()
	a, err := f.opt.OptimizeCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b, err := f.opt.OptimizeCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("plans diverge: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
}

// brokenEstimator returns non-finite garbage — the clamp must keep cost
// arithmetic finite and planning functional.
type brokenEstimator struct{ mode int }

func (b *brokenEstimator) Estimate(q *query.Query) float64 {
	switch b.mode {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return -42
	default:
		return math.Inf(-1)
	}
}

func TestOptimizeSurvivesBrokenEstimator(t *testing.T) {
	f := newFixture(t)
	for mode := 0; mode < 4; mode++ {
		o := f.opt.WithEstimator(&brokenEstimator{mode: mode})
		p, err := o.OptimizeCtx(context.Background(), chainQuery())
		if err != nil {
			t.Fatalf("mode %d: OptimizeCtx failed: %v", mode, err)
		}
		var walk func(n interface{ IsLeaf() bool })
		_ = walk
		if math.IsNaN(p.EstCost) || math.IsInf(p.EstCost, 0) {
			t.Fatalf("mode %d: non-finite plan cost %v escaped the clamp", mode, p.EstCost)
		}
	}
}
