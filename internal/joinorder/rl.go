package joinorder

import (
	"context"
	"math"
	"math/rand"

	"lqo/internal/learnedopt"
	"lqo/internal/metrics"
	"lqo/internal/ml"
	"lqo/internal/opt"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// stateFeatures is the shared (state, action) featurization for the RL
// searchers: joined-set one-hot, action one-hot, the action's estimated
// filtered cardinality (the signal that generalizes across queries — join
// selective inputs early), progress and connectivity.
type stateFeatures struct {
	tables []string
	idx    map[string]int
	est    opt.CardEstimator
}

func newStateFeatures(tables []string, est opt.CardEstimator) *stateFeatures {
	f := &stateFeatures{tables: tables, idx: map[string]int{}, est: est}
	for i, t := range tables {
		f.idx[t] = i
	}
	return f
}

func (f *stateFeatures) dim() int { return 2*len(f.tables) + 4 }

func (f *stateFeatures) vector(q *query.Query, g *query.JoinGraph, joined map[string]bool, action string) []float64 {
	v := make([]float64, f.dim())
	for a := range joined {
		if i, ok := f.idx[q.TableOf(a)]; ok {
			v[i] = 1
		}
	}
	if i, ok := f.idx[q.TableOf(action)]; ok {
		v[len(f.tables)+i] = 1
	}
	base := 2 * len(f.tables)
	v[base] = float64(len(joined)) / float64(len(q.Refs)+1)
	if len(joined) == 0 || g.ConnectsTo(action, joined) {
		v[base+1] = 1
	}
	// Estimated filtered rows of the candidate and how selective its
	// filters are relative to incident join edges.
	sub := q.Subquery(map[string]bool{action: true})
	rows := metrics.ClampCard(f.est.Estimate(sub))
	v[base+2] = math.Log1p(rows) / 20
	v[base+3] = float64(len(g.Edges(action))) / 8
	return v
}

// episodeReturn converts a final plan cost to the RL return: bounded,
// higher is better.
func episodeReturn(cost float64) float64 {
	return -math.Log1p(cost) / 25
}

// runEpisode builds an order with the given action-selection policy.
func runEpisode(q *query.Query, choose func(g *query.JoinGraph, joined map[string]bool, cands []string) string) []string {
	g := query.NewJoinGraph(q)
	joined := map[string]bool{}
	var order []string
	remaining := q.Aliases()
	for len(remaining) > 0 {
		// Connected candidates preferred, all if none.
		var cands []string
		if len(order) > 0 {
			for _, a := range remaining {
				if g.ConnectsTo(a, joined) {
					cands = append(cands, a)
				}
			}
		}
		if len(cands) == 0 {
			cands = remaining
		}
		pick := choose(g, joined, cands)
		order = append(order, pick)
		joined[pick] = true
		next := remaining[:0]
		for _, a := range remaining {
			if a != pick {
				next = append(next, a)
			}
		}
		remaining = next
	}
	return order
}

// argmax returns the candidate value scores highest: the first on ties,
// cands[0] when none scores above -Inf.
func argmax(cands []string, value func(a string) float64) string {
	best, pick := math.Inf(-1), cands[0]
	for _, a := range cands {
		if v := value(a); v > best {
			best, pick = v, a
		}
	}
	return pick
}

// DQ is the Deep-Q line [15] at linear scale: Q(s, a) = w·φ(s, a) trained
// by Monte-Carlo ε-greedy episodes on the workload, with the episode
// return derived from the base optimizer's plan cost.
//
// Simplification vs. the paper: Monte-Carlo returns replace bootstrapped
// TD targets (terminal-only reward makes them equivalent in expectation),
// and the function class is linear; RTOS below provides the neural
// variant.
type DQ struct {
	f    *stateFeatures
	w    []float64
	base *opt.Optimizer
	rng  *rand.Rand
}

// dqAlpha is DQ's learning rate.
const dqAlpha = 0.05

// NewDQ returns an untrained DQ searcher.
func NewDQ() *DQ { return &DQ{} }

// Name implements learnedopt.Optimizer.
func (s *DQ) Name() string { return "dq" }

func (s *DQ) q(x []float64) float64 {
	out := 0.0
	for i, v := range x {
		out += s.w[i] * v
	}
	return out
}

// Train implements learnedopt.Optimizer, checking ctx once per episode.
func (s *DQ) Train(ctx context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.f = newStateFeatures(lc.Cat.TableNames(), lc.Base.Est)
	s.w = make([]float64, s.f.dim())
	s.rng = rand.New(rand.NewSource(lc.Seed + 31))
	if len(lc.Workload) == 0 {
		return nil
	}
	eps := exploreEpsilon
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := lc.Workload[s.rng.Intn(len(lc.Workload))]
		var steps [][]float64
		order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
			var pick string
			if s.rng.Float64() < eps {
				pick = cands[s.rng.Intn(len(cands))]
			} else {
				pick = argmax(cands, func(a string) float64 { return s.q(s.f.vector(q, g, joined, a)) })
			}
			steps = append(steps, s.f.vector(q, g, joined, pick))
			return pick
		})
		g := episodeReturn(planCost(s.base, q, order))
		for _, x := range steps {
			err := g - s.q(x)
			for i, v := range x {
				s.w[i] += dqAlpha * err * v
			}
		}
		eps *= 0.995
	}
	return nil
}

// Plan implements learnedopt.Optimizer.
func (s *DQ) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
		return argmax(cands, func(a string) float64 { return s.q(s.f.vector(q, g, joined, a)) })
	})
	return planOrder(ctx, s.base, q, order)
}

// ReJoin is the policy-gradient line [24]: a softmax policy over
// candidate actions with linear scores, trained by REINFORCE on the same
// episode protocol as DQ.
type ReJoin struct {
	f     *stateFeatures
	theta []float64
	base  *opt.Optimizer
	rng   *rand.Rand
}

// ReJoin's learning rate and softmax temperature.
const (
	rejoinAlpha = 0.05
	rejoinTemp  = 1
)

// NewReJoin returns an untrained ReJoin searcher.
func NewReJoin() *ReJoin { return &ReJoin{} }

// Name implements learnedopt.Optimizer.
func (s *ReJoin) Name() string { return "rejoin" }

func (s *ReJoin) score(x []float64) float64 {
	out := 0.0
	for i, v := range x {
		out += s.theta[i] * v
	}
	return out
}

// policy returns softmax probabilities over the candidates.
func (s *ReJoin) policy(q *query.Query, g *query.JoinGraph, joined map[string]bool, cands []string) ([]float64, [][]float64) {
	feats := make([][]float64, len(cands))
	logits := make([]float64, len(cands))
	for i, a := range cands {
		feats[i] = s.f.vector(q, g, joined, a)
		logits[i] = s.score(feats[i]) / rejoinTemp
	}
	return ml.Softmax(logits, nil), feats
}

// Train implements learnedopt.Optimizer, checking ctx once per episode.
func (s *ReJoin) Train(ctx context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.f = newStateFeatures(lc.Cat.TableNames(), lc.Base.Est)
	s.theta = make([]float64, s.f.dim())
	s.rng = rand.New(rand.NewSource(lc.Seed + 37))
	if len(lc.Workload) == 0 {
		return nil
	}
	baseline := 0.0
	haveBaseline := false
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := lc.Workload[s.rng.Intn(len(lc.Workload))]
		type step struct {
			probs []float64
			feats [][]float64
			pick  int
		}
		var steps []step
		order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
			probs, feats := s.policy(q, g, joined, cands)
			r := s.rng.Float64()
			pick := len(cands) - 1
			for i, p := range probs {
				r -= p
				if r <= 0 {
					pick = i
					break
				}
			}
			steps = append(steps, step{probs, feats, pick})
			return cands[pick]
		})
		g := episodeReturn(planCost(s.base, q, order))
		if !haveBaseline {
			baseline = g
			haveBaseline = true
		}
		adv := g - baseline
		baseline = 0.95*baseline + 0.05*g
		for _, st := range steps {
			// ∇log π = φ(pick) − Σ_i π_i φ_i.
			for i, f := range st.feats {
				coeff := -st.probs[i]
				if i == st.pick {
					coeff += 1
				}
				for d, v := range f {
					s.theta[d] += rejoinAlpha * adv * coeff * v / rejoinTemp
				}
			}
		}
	}
	return nil
}

// Plan implements learnedopt.Optimizer.
func (s *ReJoin) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
		probs, _ := s.policy(q, g, joined, cands)
		best, pick := -1.0, cands[0]
		for i, p := range probs {
			if p > best {
				best, pick = p, cands[i]
			}
		}
		return pick
	})
	return planOrder(ctx, s.base, q, order)
}

// RTOS is the neural value-function line [73]: identical episode protocol
// to DQ but Q(s, a) is a small MLP, standing in for the paper's Tree-LSTM
// state encoder at workbench scale.
type RTOS struct {
	f    *stateFeatures
	net  *ml.Net
	adam *ml.Adam
	base *opt.Optimizer
	rng  *rand.Rand
}

// NewRTOS returns an untrained RTOS searcher.
func NewRTOS() *RTOS { return &RTOS{} }

// Name implements learnedopt.Optimizer.
func (s *RTOS) Name() string { return "rtos" }

func (s *RTOS) q(x []float64) float64 { return s.net.Forward(x)[0] }

// Train implements learnedopt.Optimizer, checking ctx once per episode.
func (s *RTOS) Train(ctx context.Context, lc *learnedopt.Context) error {
	s.base = lc.Base
	s.f = newStateFeatures(lc.Cat.TableNames(), lc.Base.Est)
	s.rng = rand.New(rand.NewSource(lc.Seed + 41))
	net, err := ml.NewNet([]int{s.f.dim(), 32, 1}, ml.ReLU, s.rng)
	if err != nil {
		return err
	}
	s.net = net
	s.adam = ml.NewAdam(1e-3, s.net)
	if len(lc.Workload) == 0 {
		return nil
	}
	eps := exploreEpsilon
	for ep := 0; ep < episodes; ep++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		q := lc.Workload[s.rng.Intn(len(lc.Workload))]
		var steps [][]float64
		order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
			var pick string
			if s.rng.Float64() < eps {
				pick = cands[s.rng.Intn(len(cands))]
			} else {
				pick = argmax(cands, func(a string) float64 { return s.q(s.f.vector(q, g, joined, a)) })
			}
			steps = append(steps, s.f.vector(q, g, joined, pick))
			return pick
		})
		g := episodeReturn(planCost(s.base, q, order))
		for _, x := range steps {
			c := s.net.ForwardCache(x)
			diff := c.Output()[0] - g
			s.net.Backward(c, []float64{2 * diff})
		}
		s.adam.Step(len(steps))
		eps *= 0.995
	}
	return nil
}

// Plan implements learnedopt.Optimizer.
func (s *RTOS) Plan(ctx context.Context, q *query.Query) (*plan.Node, error) {
	order := runEpisode(q, func(g *query.JoinGraph, joined map[string]bool, cands []string) string {
		return argmax(cands, func(a string) float64 { return s.q(s.f.vector(q, g, joined, a)) })
	})
	return planOrder(ctx, s.base, q, order)
}
