package learnedopt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"lqo/internal/costmodel"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Bao steers the native optimizer with hint sets [37]: each arm disables
// an operator class, the native optimizer plans under each arm, and a
// learned value model (tree-structured by default, as in the paper)
// predicts each resulting plan's latency; the predicted-fastest plan runs.
type Bao struct {
	// Arms are the hint sets explored per query (default plan.BaoHintSets).
	Arms []plan.HintSet
	// Value is the risk model (default costmodel.TreeConv).
	Value costmodel.Model
	// Explore enables ε-greedy experience collection during training:
	// only the chosen arm is executed per training query, mirroring the
	// paper's online regime. False executes every arm (exhaustive
	// experience) — the E8 ablation toggles this.
	Explore bool
	// Epsilon is the exploration rate when Explore is set (default 0.2).
	Epsilon float64
	// Rounds is the number of collect+retrain rounds when Explore is set
	// (default 3).
	Rounds int

	ctx *Context
}

// NewBao returns a Bao optimizer. The value model defaults to boosted
// trees on plan features — at workbench data volumes the GBDT is the more
// reliable risk model; the paper's tree-convolution architecture is
// available via NewBaoTreeConv and compared in ablation E8.
func NewBao() *Bao {
	return &Bao{Arms: plan.BaoHintSets(), Value: costmodel.NewGBDTCost(false), Epsilon: 0.2, Rounds: 3}
}

// NewBaoTreeConv returns Bao with the paper's tree-convolution value
// model [37, 41].
func NewBaoTreeConv() *Bao {
	b := NewBao()
	tc := costmodel.NewTreeConv()
	tc.Epochs = 120
	b.Value = tc
	return b
}

// Name implements Optimizer.
func (b *Bao) Name() string { return "bao" }

// Train implements Optimizer.
func (b *Bao) Train(ctx *Context) error {
	b.ctx = ctx
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: bao needs a training workload")
	}
	if b.Explore {
		return b.trainExplore(ctx)
	}
	var exp []costmodel.TrainPlan
	for _, q := range ctx.Workload {
		plans, err := ctx.Base.CandidatePlans(context.Background(), q, b.Arms)
		if err != nil {
			return err
		}
		for _, p := range plans {
			lat, err := Measure(ctx.Ex, q, p)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: lat})
		}
	}
	return b.Value.Train(&costmodel.Context{Cat: ctx.Cat, Stats: ctx.Stats, Plans: exp, Seed: ctx.Seed + 51})
}

// trainExplore collects experience ε-greedily: per round, each training
// query contributes only the chosen arm's execution, then the value model
// is refit — the paper's bandit regime.
func (b *Bao) trainExplore(ctx *Context) error {
	rng := rand.New(rand.NewSource(ctx.Seed + 53))
	var exp []costmodel.TrainPlan
	trained := false
	for round := 0; round < b.Rounds; round++ {
		for _, q := range ctx.Workload {
			plans, err := ctx.Base.CandidatePlans(context.Background(), q, b.Arms)
			if err != nil {
				return err
			}
			var pick *plan.Node
			if !trained || rng.Float64() < b.Epsilon {
				pick = plans[rng.Intn(len(plans))]
			} else {
				best := math.Inf(1)
				for _, p := range plans {
					if v := b.Value.Predict(q, p); v < best {
						best, pick = v, p
					}
				}
			}
			lat, err := Measure(ctx.Ex, q, pick)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: pick, Latency: lat})
		}
		if err := b.Value.Train(&costmodel.Context{Cat: ctx.Cat, Stats: ctx.Stats, Plans: exp, Seed: ctx.Seed + 53}); err != nil {
			return err
		}
		trained = true
	}
	return nil
}

// Candidates implements CandidateProvider.
func (b *Bao) Candidates(q *query.Query) ([]Candidate, error) {
	plans, err := b.ctx.Base.CandidatePlans(context.Background(), q, b.Arms)
	if err != nil {
		return nil, err
	}
	out := make([]Candidate, len(plans))
	for i, p := range plans {
		out[i] = Candidate{Plan: p, Predicted: b.Value.Predict(q, p)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicted < out[j].Predicted })
	return out, nil
}

// Plan implements Optimizer.
func (b *Bao) Plan(q *query.Query) (*plan.Node, error) {
	cands, err := b.Candidates(q)
	if err != nil {
		return nil, err
	}
	return cands[0].Plan, nil
}

// AutoSteer extends Bao with automated hint-set discovery [1]: starting
// from single-operator prohibitions, it greedily merges the hint sets
// that won on the training workload into larger combinations, keeping
// those that produce new winning plans.
type AutoSteer struct {
	Bao
	// MaxDiscovered bounds the grown arm set (default 12).
	MaxDiscovered int
}

// NewAutoSteer returns an AutoSteer optimizer.
func NewAutoSteer() *AutoSteer {
	a := &AutoSteer{Bao: *NewBao(), MaxDiscovered: 12}
	a.Bao.Arms = []plan.HintSet{
		{},
		{NoHashJoin: true},
		{NoMergeJoin: true},
		{NoNestedLoop: true},
		{NoIndexScan: true},
	}
	return a
}

// Name implements Optimizer.
func (a *AutoSteer) Name() string { return "autosteer" }

// Train implements Optimizer: discovers hint sets, then trains Bao on the
// grown arm set.
func (a *AutoSteer) Train(ctx *Context) error {
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: autosteer needs a training workload")
	}
	// Count wins per single-operator arm on a probe subset.
	probe := ctx.Workload
	if len(probe) > 20 {
		probe = probe[:20]
	}
	wins := make([]int, len(a.Bao.Arms))
	for _, q := range probe {
		bestLat := math.Inf(1)
		bestArm := 0
		for i, h := range a.Bao.Arms {
			p, err := ctx.Base.WithHints(h).OptimizeCtx(context.Background(), q)
			if err != nil {
				continue
			}
			lat, err := Measure(ctx.Ex, q, p)
			if err != nil {
				continue
			}
			if lat < bestLat {
				bestLat, bestArm = lat, i
			}
		}
		wins[bestArm]++
	}
	// Merge the two winningest non-default arms into combined hint sets.
	type armWin struct {
		i, w int
	}
	var ranked []armWin
	for i, w := range wins {
		if i != 0 {
			ranked = append(ranked, armWin{i, w})
		}
	}
	sort.Slice(ranked, func(x, y int) bool { return ranked[x].w > ranked[y].w })
	grown := append([]plan.HintSet{}, a.Bao.Arms...)
	for i := 0; i < len(ranked) && len(grown) < a.MaxDiscovered; i++ {
		for j := i + 1; j < len(ranked) && len(grown) < a.MaxDiscovered; j++ {
			merged := mergeHints(a.Bao.Arms[ranked[i].i], a.Bao.Arms[ranked[j].i])
			if merged.Valid() && !containsHint(grown, merged) {
				grown = append(grown, merged)
			}
		}
	}
	a.Bao.Arms = grown
	return a.Bao.Train(ctx)
}

func mergeHints(a, b plan.HintSet) plan.HintSet {
	return plan.HintSet{
		NoHashJoin:   a.NoHashJoin || b.NoHashJoin,
		NoMergeJoin:  a.NoMergeJoin || b.NoMergeJoin,
		NoNestedLoop: a.NoNestedLoop || b.NoNestedLoop,
		NoIndexScan:  a.NoIndexScan || b.NoIndexScan,
		NoSeqScan:    a.NoSeqScan || b.NoSeqScan,
	}
}

func containsHint(hs []plan.HintSet, h plan.HintSet) bool {
	for _, x := range hs {
		if x == h {
			return true
		}
	}
	return false
}
