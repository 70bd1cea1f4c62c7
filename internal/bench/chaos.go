package bench

import (
	"context"
	"fmt"
	"time"

	"lqo/internal/guard"
	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
)

// chaosOptions are E10's parameters; tests drive e10Chaos with their own.
type chaosOptions struct {
	// Rates are the per-call fault probabilities to sweep.
	Rates []float64
	// Timeout is the guarded planner's per-decision budget for the
	// learned component.
	Timeout time.Duration
	// Hang is how long an injected hang stalls: longer than Timeout so
	// hangs exercise the watchdog, finite so goroutines always join.
	Hang time.Duration
}

// E10Chaos is the guardrail-runtime experiment: the learned planning path
// is wrapped in the chaos harness (garbage estimates, errors, panics,
// hangs at a swept fault rate) and deployed behind guard.Planner — panic
// isolation, per-decision timeout, circuit breaker, native fallback. The
// claim under test is the tutorial's deployment bar: availability stays
// at 100% and plan quality degrades gracefully no matter how often the
// learned component misbehaves. It sweeps fault rates 0, 1 % and 10 %
// with a 5 ms decision budget and 20 ms hangs.
func E10Chaos(ctx context.Context, env *Env) (*Report, error) {
	return e10Chaos(ctx, env, chaosOptions{
		Rates:   []float64{0, 0.01, 0.10},
		Timeout: 5 * time.Millisecond,
		Hang:    20 * time.Millisecond,
	})
}

// e10QueryBudget is E10's per-query wall deadline: generous, because a
// tripped budget means the guardrails failed to contain a fault.
const e10QueryBudget = 2 * time.Second

func e10Chaos(ctx context.Context, env *Env, opts chaosOptions) (*Report, error) {
	r := &Report{
		ID: "E10",
		Title: fmt.Sprintf("Chaos guardrails, dataset=%s (N=%d, decision budget %s, hang %s)",
			env.Name, len(env.Test), opts.Timeout, opts.Hang),
		Header: []string{"fault rate", "avail", "learned", "fallback", "trips", "timeouts", "panics", "errors", "GMRL", "plan p99 us"},
	}

	// Native baseline latencies (work units) per test query, for GMRL and
	// the breaker's regression signal.
	baseline := make([]float64, len(env.Test))
	for i, l := range env.Test {
		p, err := env.Base.OptimizeCtx(ctx, l.Q)
		if err != nil {
			return nil, err
		}
		res, err := env.Ex.RunCtx(ctx, l.Q, p)
		if err != nil {
			return nil, err
		}
		baseline[i] = res.Stats.WorkUnits
	}

	for ri, rate := range opts.Rates {
		in := guard.NewInjector(guard.ChaosConfig{Rate: rate, Seed: env.Seed + int64(ri)*101, Hang: opts.Hang})

		// The "learned" optimizer under chaos: the native planner behind
		// both fault surfaces — a chaos-wrapped estimator feeding its plan
		// search, and a chaos-wrapped Plan entry point.
		chaoticOpt := env.Base.WithEstimator(&guard.ChaosEstimator{Base: env.Base.Est, In: in})
		learned := learnedopt.NewNative()
		if err := learned.Train(&learnedopt.Context{Cat: env.Cat, Stats: env.Stats, Ex: env.Ex, Base: chaoticOpt, Seed: env.Seed}); err != nil {
			return nil, err
		}
		g := guard.NewPlanner(&guard.ChaosPlanner{Base: learned, In: in}, env.Base, opts.Timeout)
		// Bench sweeps are short (tens of queries): a twitchier breaker
		// than the production default makes trips observable at the
		// swept fault rates.
		g.Breaker = guard.NewBreaker(guard.BreakerConfig{FailureThreshold: 2, Cooldown: 4})

		var (
			served    int
			planWall  []float64
			rel       []float64
			lastErr   error
			unavailed int
		)
		for i, l := range env.Test {
			qctx, cancel := context.WithTimeout(ctx, e10QueryBudget)
			start := time.Now()
			p, learnedServed, err := g.Plan(qctx, l.Q)
			planWall = append(planWall, float64(time.Since(start).Microseconds()))
			g.Wait() // an abandoned attempt must not draw the next query's faults
			if err != nil || p == nil {
				unavailed++
				lastErr = err
				cancel()
				continue
			}
			res, err := env.Ex.RunCtx(qctx, l.Q, p)
			cancel()
			if err != nil {
				unavailed++
				lastErr = err
				continue
			}
			served++
			rel = append(rel, res.Stats.WorkUnits/baseline[i])
			g.ObserveLatency(learnedServed, res.Stats.WorkUnits, baseline[i])
		}
		if unavailed > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("rate %.2f: %d queries UNSERVED (last error: %v)", rate, unavailed, lastErr))
		}
		s := g.Stats()
		var trips int64
		if g.Breaker != nil {
			trips = g.Breaker.Trips()
		}
		q := metrics.Summarize(planWall)
		r.AddRow(
			fmt.Sprintf("%.0f%%", rate*100),
			fmt.Sprintf("%.1f%%", 100*float64(served)/float64(len(env.Test))),
			fmt.Sprintf("%d", s.Learned),
			fmt.Sprintf("%d", s.Fallbacks),
			fmt.Sprintf("%d", trips),
			fmt.Sprintf("%d", s.Timeouts),
			fmt.Sprintf("%d", s.Panics),
			fmt.Sprintf("%d", s.Errors),
			F(metrics.GeoMean(rel)),
			F(q.P99),
		)
	}
	r.Notes = append(r.Notes,
		"avail: queries answered with an executed plan — the guardrail contract is 100% at every fault rate",
		"learned/fallback: which path produced the executed plan; trips: circuit-breaker opens",
		"GMRL: executed work units vs the native baseline (plan quality may degrade under chaos; availability must not)",
		"plan p99 us: wall-clock planning tail, including watchdog timeouts on injected hangs",
	)
	return r, nil
}
