package learnedopt

import (
	"fmt"
	"math"
	"math/rand"

	"lqo/internal/costmodel"
	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/plan"
)

// PairwiseComparator is the learning-to-rank risk model shared by Lero
// [79] and LEON [4]: a scorer network s(·) over plan features trained with
// logistic loss on executed plan pairs, P(p1 faster than p2) =
// σ(s(p2) − s(p1)). Lower score = predicted faster.
type PairwiseComparator struct {
	f   *costmodel.PlanFeaturizer
	net *ml.Net
}

// NewPairwiseComparator returns an untrained comparator.
func NewPairwiseComparator() *PairwiseComparator { return &PairwiseComparator{} }

// PlanPair is one training comparison: two plans for the same query with
// measured latencies.
type PlanPair struct {
	P1, P2     *plan.Node
	Lat1, Lat2 float64
}

// Train fits the scorer on executed pairs.
func (c *PairwiseComparator) Train(cat *data.Catalog, pairs []PlanPair, seed int64) error {
	if len(pairs) == 0 {
		return fmt.Errorf("learnedopt: comparator needs training pairs")
	}
	c.f = costmodel.NewPlanFeaturizer(cat, false)
	rng := rand.New(rand.NewSource(seed))
	net, err := ml.NewNet([]int{c.f.Dim(), 32, 1}, ml.ReLU, rng)
	if err != nil {
		return err
	}
	c.net = net
	adam := ml.NewAdam(1e-3, c.net)
	ml.Minibatches(rng, len(pairs), 60, 16, func(i int) { c.trainOne(pairs[i]) }, adam.Step)
	return nil
}

func (c *PairwiseComparator) trainOne(p PlanPair) {
	// y = 1 if P1 faster.
	y := 0.0
	if p.Lat1 < p.Lat2 {
		y = 1
	}
	c1 := c.net.ForwardCache(c.f.Vector(p.P1))
	c2 := c.net.ForwardCache(c.f.Vector(p.P2))
	// prob = σ(s2 − s1); logistic loss gradient d = prob − y.
	prob := sigmoid(c2.Output()[0] - c1.Output()[0])
	d := prob - y
	c.net.Backward(c1, []float64{-d})
	c.net.Backward(c2, []float64{d})
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Score returns the plan's predicted-slowness score (lower is faster).
func (c *PairwiseComparator) Score(p *plan.Node) float64 {
	if c.net == nil {
		return 0
	}
	return c.net.Forward(c.f.Vector(p))[0]
}

// SelectBest returns the index of the candidate winning the most pairwise
// comparisons — Lero's selection rule; ties break toward lower score,
// then the earlier candidate. It returns -1 for no candidates.
func (c *PairwiseComparator) SelectBest(cands []Candidate) int {
	scores := make([]float64, len(cands))
	for i, x := range cands {
		scores[i] = c.Score(x.Plan)
	}
	bestWins, bestIdx := -1, -1
	for i, s := range scores {
		wins := 0
		for _, o := range scores {
			if s < o {
				wins++
			}
		}
		if wins > bestWins || (wins == bestWins && s < scores[bestIdx]) {
			bestWins, bestIdx = wins, i
		}
	}
	return bestIdx
}

// PairsFromRuns builds all O(k²) training pairs from one query's executed
// candidate set.
func PairsFromRuns(runs []costmodel.TrainPlan) []PlanPair {
	var out []PlanPair
	for i, a := range runs {
		for _, b := range runs[i+1:] {
			if a.Latency != b.Latency {
				out = append(out, PlanPair{P1: a.Plan, P2: b.Plan, Lat1: a.Latency, Lat2: b.Latency})
			}
		}
	}
	return out
}
