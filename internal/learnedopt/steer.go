package learnedopt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lqo/internal/costmodel"
	"lqo/internal/exec"
	"lqo/internal/metrics"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Steering is the one steering core behind Bao [37], Lero [79] and LEON
// [4] — and, through pilotscope's push/pull, the SteeringDriver: per
// query it turns each knob into a plan, keeps the first knob of each
// distinct plan, and selects among those candidates with one learned
// ranker trained on executed candidates. A knob is a plan.HintSet arm,
// a float64 cardinality scale factor (ScaledEstimator) or LEON's greedy
// enumeration; the ranker is a pointwise latency regressor (value) or
// the pairwise comparator (cmp).
type Steering struct {
	// Explore collects experience ε-greedily: per round, each training
	// query executes only the chosen candidate, then the ranker is refit
	// — Bao's online regime. False executes every candidate (exhaustive
	// experience); the E8 ablation toggles this.
	Explore bool

	// value is the pointwise ranker; nil when cmp ranks.
	value costmodel.Model
	// cmp is the pairwise ranker (Lero, LEON).
	cmp   *PairwiseComparator
	name  string
	knobs []any
	seed  int64 // added to the training seed; Explore adds 2 more
	plan  PlanFunc
	run   RunFunc
	base  *opt.Optimizer // the native optimizer the knobs steer
	ex    *exec.Executor
}

// PlanFunc turns one knob into q's plan.
type PlanFunc func(ctx context.Context, q *query.Query, knob any) (*plan.Node, error)

// RunFunc executes q's candidate p, planned under knob, and returns its
// latency in work units.
type RunFunc func(ctx context.Context, q *query.Query, knob any, p *plan.Node) (float64, error)

// Explore's schedule: the exploration rate and the number of
// collect+retrain rounds.
const (
	exploreEpsilon = 0.2
	exploreRounds  = 3
)

// greedyKnob plans with the native optimizer's greedy enumeration.
type greedyKnob struct{}

// HintKnobs returns plan.BaoHintSets as knobs: Bao's arms.
func HintKnobs() []any {
	var out []any
	for _, h := range plan.BaoHintSets() {
		out = append(out, h)
	}
	return out
}

// ScaleKnobs returns Lero's cardinality scaling factors, spanning 10^±2.
func ScaleKnobs() []any { return []any{0.01, 0.1, 1.0, 10.0, 100.0} }

// NewSteering returns a steering core over knobs that plans with plan and
// measures with run instead of a native optimizer and executor — the
// loop deployed outside the engine. value is its pointwise ranker.
func NewSteering(name string, knobs []any, value costmodel.Model, seed int64, plan PlanFunc, run RunFunc) *Steering {
	return &Steering{value: value, name: name, knobs: knobs, seed: seed, plan: plan, run: run}
}

// native returns a core steering the Context's native optimizer, ranked
// by value or cmp.
func native(name string, knobs []any, seed int64, value costmodel.Model, cmp *PairwiseComparator) *Steering {
	s := &Steering{value: value, cmp: cmp, name: name, knobs: knobs, seed: seed}
	s.plan, s.run = s.planKnob, s.measure
	return s
}

// NewBao returns Bao [37]: hint-set arms ranked by a pointwise value
// model. The model is boosted trees on plan features — at workbench data
// volumes the more reliable risk model; the paper's tree-convolution
// architecture is NewBaoTreeConv, compared in ablation E8.
func NewBao() *Steering { return native("bao", HintKnobs(), 51, costmodel.NewGBDTCost(false), nil) }

// NewBaoTreeConv returns Bao with the paper's tree-convolution value
// model [37, 41].
func NewBaoTreeConv() *Steering {
	tc := costmodel.NewTreeConv()
	tc.Epochs = 120
	return native("bao", HintKnobs(), 51, tc, nil)
}

// NewLero returns Lero [79]: scaled-cardinality candidates ranked by the
// pairwise comparator.
func NewLero() *Steering { return native("lero", ScaleKnobs(), 61, nil, NewPairwiseComparator()) }

// NewPointwiseLero returns the E8 ablation of Lero: the same candidates
// ranked by a pointwise latency regressor — the design choice the Lero
// paper argues against.
func NewPointwiseLero() *Steering {
	return native("lero-pointwise", ScaleKnobs(), 67, costmodel.NewGBDTCost(false), nil)
}

// NewLEON returns LEON [4]: the native DP's plans under every hint set,
// plus its greedy plan, ranked by the pairwise comparator — learned
// selection over DP-grounded enumeration.
func NewLEON() *Steering {
	return native("leon", append(HintKnobs(), greedyKnob{}), 73, nil, NewPairwiseComparator())
}

// Name implements Optimizer.
func (s *Steering) Name() string { return s.name }

// Train implements Optimizer: it fits the ranker on executed candidates
// of lc's workload, under ctx — every candidate of every query, or with
// Explore Bao's bandit regime: per round one candidate per query, random
// in round 0 and with probability ε after, else the ranker's pick —
// refit each round.
func (s *Steering) Train(ctx context.Context, lc *Context) error {
	if len(lc.Workload) == 0 {
		return fmt.Errorf("learnedopt: %s needs a training workload", s.name)
	}
	s.base, s.ex = lc.Base, lc.Ex
	seed, rounds := lc.Seed+s.seed, 1
	if s.Explore {
		seed, rounds = seed+2, exploreRounds
	}
	rng := rand.New(rand.NewSource(seed))
	var groups [][]costmodel.TrainPlan
	for round := 0; round < rounds; round++ {
		for _, q := range lc.Workload {
			if err := ctx.Err(); err != nil {
				return err
			}
			cands, err := s.explore(ctx, q)
			if err != nil {
				return err
			}
			if s.Explore {
				if round == 0 || rng.Float64() < exploreEpsilon {
					cands = []Candidate{cands[rng.Intn(len(cands))]}
				} else {
					cands = []Candidate{s.pick(q, cands)}
				}
			}
			var g []costmodel.TrainPlan
			for _, c := range cands {
				if lat, err := s.run(ctx, q, c.Knob, c.Plan); err == nil {
					g = append(g, costmodel.TrainPlan{Q: q, Plan: c.Plan, Latency: lat})
				}
			}
			groups = append(groups, g)
		}
		if err := s.fitRanker(lc, groups, seed); err != nil {
			return err
		}
	}
	return nil
}

// fitRanker trains the ranker on per-query groups of executed
// candidates: the pairwise comparator on each group's pairs, the
// pointwise model on every run.
func (s *Steering) fitRanker(lc *Context, groups [][]costmodel.TrainPlan, seed int64) error {
	if s.cmp != nil {
		var pairs []PlanPair
		for _, g := range groups {
			pairs = append(pairs, PairsFromRuns(g)...)
		}
		return s.cmp.Train(lc.Cat, pairs, seed)
	}
	var exp []costmodel.TrainPlan
	for _, g := range groups {
		exp = append(exp, g...)
	}
	return s.value.Train(&costmodel.Context{Cat: lc.Cat, Stats: lc.Stats, Plans: exp, Seed: seed})
}

// explore turns each knob into q's plan, keeping the first knob of each
// distinct plan and skipping a knob whose plan fails; it errors when ctx
// is done or no knob yields a plan. The leading hint-set candidates are
// ordered by estimated cost, as opt.CandidatePlans orders Bao's arms.
func (s *Steering) explore(ctx context.Context, q *query.Query) ([]Candidate, error) {
	var out []Candidate
	var lastErr error
	seen := map[string]bool{}
	for _, k := range s.knobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		p, err := s.plan(ctx, q, k)
		if err != nil {
			lastErr = err
			continue
		}
		if fp := p.Fingerprint(); !seen[fp] {
			seen[fp] = true
			out = append(out, Candidate{Plan: p, Knob: k})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("learnedopt: %s: no knob yields a plan: %w", s.name, lastErr)
	}
	n := 0
	for n < len(out) && isHintSet(out[n].Knob) {
		n++
	}
	sort.SliceStable(out[:n], func(i, j int) bool { return out[i].Plan.EstCost < out[j].Plan.EstCost })
	return out, nil
}

func isHintSet(k any) bool {
	_, ok := k.(plan.HintSet)
	return ok
}

// pick is the selection rule. Pointwise: the first strictly lowest
// prediction wins, a NaN prediction never wins, and if every prediction
// is NaN the first candidate does. Pairwise: SelectBest.
func (s *Steering) pick(q *query.Query, cands []Candidate) Candidate {
	if s.cmp != nil {
		return cands[s.cmp.SelectBest(cands)]
	}
	best, bestV := cands[0], math.Inf(1)
	for _, c := range cands {
		if v := s.value.Predict(q, c.Plan); v < bestV {
			best, bestV = c, v
		}
	}
	return best
}

// Choose returns the candidate the ranker selects for q, under ctx.
func (s *Steering) Choose(ctx context.Context, q *query.Query) (Candidate, error) {
	cands, err := s.explore(ctx, q)
	if err != nil {
		return Candidate{}, err
	}
	return s.pick(q, cands), nil
}

// Plan implements Optimizer.
func (s *Steering) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	c, err := s.Choose(ctx, q)
	return c.Plan, err
}

// Candidates implements CandidateProvider: every candidate with the
// ranker's prediction (the comparator's ordinal score when pairwise),
// lowest first.
func (s *Steering) Candidates(ctx context.Context, q *query.Query) ([]Candidate, error) {
	cands, err := s.explore(ctx, q)
	if err != nil {
		return nil, err
	}
	for i, c := range cands {
		if s.cmp != nil {
			cands[i].Predicted = s.cmp.Score(c.Plan)
		} else {
			cands[i].Predicted = s.value.Predict(q, c.Plan)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Predicted < cands[j].Predicted })
	return cands, nil
}

// planKnob plans q with the native optimizer under knob.
func (s *Steering) planKnob(ctx context.Context, q *query.Query, knob any) (*plan.Node, error) {
	switch k := knob.(type) {
	case plan.HintSet:
		return s.base.WithHints(k).OptimizeCtx(ctx, q)
	case float64:
		return s.base.WithEstimator(&ScaledEstimator{Base: s.base.Est, Factor: k}).OptimizeCtx(ctx, q)
	case greedyKnob:
		return s.base.OptimizeGreedyCtx(ctx, q)
	}
	return nil, fmt.Errorf("learnedopt: unknown knob %T", knob)
}

// measure is Measure on the Context's executor.
func (s *Steering) measure(ctx context.Context, q *query.Query, _ any, p *plan.Node) (float64, error) {
	return Measure(ctx, s.ex, q, p)
}

// ScaledEstimator is Lero's candidate-generation knob [79]: it multiplies
// the base estimator's cardinality for a k-table sub-query by
// factor^(k−1), deliberately biasing the optimizer toward plans that
// would be optimal if intermediate results were systematically larger or
// smaller. The base is sanitized (NaN and negative become 0, +Inf caps
// at metrics.MaxCard), scaled, then clamped (metrics.ClampCard), so a
// zero, NaN or negative base gives 1 under every factor; a positive
// product below 1 passes through, as the optimizer's own SanitizeCard
// keeps it.
type ScaledEstimator struct {
	Base   opt.CardEstimator
	Factor float64
}

// Estimate implements opt.CardEstimator.
func (s *ScaledEstimator) Estimate(q *query.Query) float64 {
	f := 1.0
	for i := 1; i < len(q.Refs); i++ {
		f *= s.Factor
	}
	return metrics.ClampCard(metrics.SanitizeCard(s.Base.Estimate(q)) * f)
}
