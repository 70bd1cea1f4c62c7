package adapt

import (
	"context"
	"fmt"

	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/workload"
)

// GateConfig tunes the regression gate. Zero values select defaults.
type GateConfig struct {
	// MaxGMRL is the geometric-mean relative latency (candidate work /
	// incumbent work over the holdout) above which the candidate is
	// rejected. The default 1.0 demands the candidate plan at least as
	// well as the incumbent overall.
	MaxGMRL float64
	// RelBound is the per-query relative latency above which a single
	// holdout query counts as a regression even if the average improves —
	// the per-query no-regression rule Lehmann et al. show matters more
	// than averages (default 2: no query may run twice as slow under the
	// candidate).
	RelBound float64
	// QErrBound + QErrRatio form the estimate-quality regression rule: a
	// holdout query regresses when the candidate's q-error exceeds
	// QErrBound AND exceeds QErrRatio × the incumbent's q-error on the
	// same query. Both conditions are required — estimators with noisy
	// join estimates routinely trade small q-error differences per query,
	// and rejecting on any per-query worsening would block candidates
	// that are strictly better everywhere it matters (defaults 16 and 2).
	QErrBound float64
	// QErrRatio: see QErrBound (default 2).
	QErrRatio float64
	// MinHoldout is the minimum holdout size the gate will judge on;
	// fewer queries is an automatic reject (default 8).
	MinHoldout int
}

// minQErrCard is the smallest true cardinality the q-error rule applies
// to: on empty or near-empty results the clamped ratio is dominated by
// noise (estimating 40 rows instead of 0 scores q-error 40 while the
// plans are identical), so such queries are judged by the latency rule
// alone.
const minQErrCard = 8

func (c GateConfig) withDefaults() GateConfig {
	if c.MaxGMRL <= 0 {
		c.MaxGMRL = 1.0
	}
	if c.RelBound <= 1 {
		c.RelBound = 2
	}
	if c.QErrBound <= 1 {
		c.QErrBound = 16
	}
	if c.QErrRatio <= 1 {
		c.QErrRatio = 2
	}
	if c.MinHoldout <= 0 {
		c.MinHoldout = 8
	}
	return c
}

// Verdict is the gate's decision with the evidence behind it.
type Verdict struct {
	Promote   bool
	N         int     // holdout queries judged
	GMRL      float64 // geo-mean(candidate work / incumbent work)
	Regressed int     // queries violating the per-query q-error rule
	WorstRel  float64 // worst single-query relative latency
	WorstQErr float64 // worst candidate q-error on the holdout
	Reason    string  // human-readable reject reason ("" on promote)
}

// Gate is the Eraser-style regression gate: it replays a held-out query
// log under the candidate and the incumbent estimator — real plans, real
// execution, deterministic work-unit latencies — and promotes the
// candidate only if overall latency does not regress (GMRL <= MaxGMRL)
// and no single query's estimate regresses past QErrBound. The gate is
// the only road to promotion: the loop never publishes an unvalidated
// candidate.
type Gate struct {
	Opt *opt.Optimizer // planning template (estimator swapped per side)
	Ex  *exec.Executor
	Cfg GateConfig
}

// NewGate returns a gate planning with o and executing with ex.
func NewGate(o *opt.Optimizer, ex *exec.Executor, cfg GateConfig) *Gate {
	return &Gate{Opt: o, Ex: ex, Cfg: cfg.withDefaults()}
}

// replay plans q with est and executes the plan, returning the charged
// work units.
func (g *Gate) replay(ctx context.Context, est opt.CardEstimator, l workload.Labeled) (float64, error) {
	p, err := g.Opt.WithEstimator(est).OptimizeCtx(ctx, l.Q)
	if err != nil {
		return 0, err
	}
	res, err := g.Ex.RunCtx(ctx, l.Q, p)
	if err != nil {
		return 0, err
	}
	return res.Stats.WorkUnits, nil
}

// Validate judges candidate against incumbent on the holdout. It returns
// a non-nil Verdict unless replay itself fails (optimizer or executor
// error — the caller should treat that as a failed attempt, not a pass).
// Candidate-side panics are not possible here: estimators only estimate,
// and the loop already trained the candidate under guard.Safe.
func (g *Gate) Validate(ctx context.Context, holdout []workload.Labeled, incumbent, candidate opt.CardEstimator) (*Verdict, error) {
	v := &Verdict{}
	if len(holdout) < g.Cfg.MinHoldout {
		v.Reason = fmt.Sprintf("holdout too small: %d < %d", len(holdout), g.Cfg.MinHoldout)
		return v, nil
	}
	rels := make([]float64, 0, len(holdout))
	for _, l := range holdout {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		incWork, err := g.replay(ctx, incumbent, l)
		if err != nil {
			return nil, fmt.Errorf("gate: incumbent replay: %w", err)
		}
		candWork, err := g.replay(ctx, candidate, l)
		if err != nil {
			return nil, fmt.Errorf("gate: candidate replay: %w", err)
		}
		rel := 1.0
		if incWork > 0 {
			rel = candWork / incWork
		}
		rels = append(rels, rel)
		if rel > v.WorstRel {
			v.WorstRel = rel
		}
		qc := metrics.QError(candidate.Estimate(l.Q), l.Card)
		qi := metrics.QError(incumbent.Estimate(l.Q), l.Card)
		if qc > v.WorstQErr {
			v.WorstQErr = qc
		}
		if rel > g.Cfg.RelBound ||
			(l.Card >= minQErrCard && qc > g.Cfg.QErrBound && qc > g.Cfg.QErrRatio*qi) {
			v.Regressed++
		}
	}
	v.N = len(rels)
	v.GMRL = metrics.GeoMean(rels)
	switch {
	case v.Regressed > 0:
		v.Reason = fmt.Sprintf("%d/%d holdout queries regress (rel > %g, or q-error > %g and %g× incumbent)",
			v.Regressed, v.N, g.Cfg.RelBound, g.Cfg.QErrBound, g.Cfg.QErrRatio)
	case v.GMRL > g.Cfg.MaxGMRL:
		v.Reason = fmt.Sprintf("GMRL %.3f exceeds %.3f", v.GMRL, g.Cfg.MaxGMRL)
	default:
		v.Promote = true
	}
	return v, nil
}
