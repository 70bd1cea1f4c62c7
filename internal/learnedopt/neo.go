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

// Neo learns the whole optimizer [38]: a value network predicts the best
// achievable latency from a (partial) plan, and plan search expands the
// most promising partial plans. The workbench variant uses beam search
// over left-deep prefixes (Balsa's strategy [69], which the tutorial
// groups with Neo) and a value model over partial-plan features, trained
// iteratively from its own executions — Neo's experience loop.
type Neo struct {
	// Beam is the search width (default 4).
	Beam int
	// Iterations of the plan-execute-retrain loop (default 2).
	Iterations int
	// Value is the latency predictor over (partial) plans.
	Value costmodel.Model
	// Epsilon, when positive, makes the beam ε-greedy: at each step one
	// beam slot is filled by a random (not best-scored) expansion — the
	// LOGER [3] search strategy, which keeps the beam from collapsing onto
	// the value model's blind spots.
	Epsilon float64

	name string
	ctx  *Context
	rng  *rand.Rand
}

// NewNeo returns a Neo optimizer with default search parameters.
func NewNeo() *Neo {
	return &Neo{name: "neo", Beam: 4, Iterations: 2, Value: costmodel.NewGBDTCost(false)}
}

// NewLOGER returns the ε-beam variant [3]: Neo's architecture with a
// stochastic slot in every beam step.
func NewLOGER() *Neo {
	l := NewNeo()
	l.name = "loger"
	l.Epsilon = 0.25
	return l
}

// Name implements Optimizer.
func (n *Neo) Name() string { return n.name }

// Train implements Optimizer: bootstrap experience from the native
// optimizer's plans (Neo's expert demonstrations), then iterate
// plan→execute→retrain (Balsa drops the demonstrations; we keep both in
// the pool).
func (n *Neo) Train(ctx *Context) error {
	n.ctx = ctx
	n.rng = rand.New(rand.NewSource(ctx.Seed + 89))
	if len(ctx.Workload) == 0 {
		return fmt.Errorf("learnedopt: %s needs a training workload", n.name)
	}
	var exp []costmodel.TrainPlan
	for _, q := range ctx.Workload {
		p, err := ctx.Base.OptimizeCtx(context.Background(), q)
		if err != nil {
			return err
		}
		lat, err := Measure(ctx.Ex, q, p)
		if err != nil {
			continue
		}
		exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: lat})
	}
	if err := n.Value.Train(&costmodel.Context{Cat: ctx.Cat, Stats: ctx.Stats, Plans: exp, Seed: ctx.Seed + 71}); err != nil {
		return err
	}
	for it := 0; it < n.Iterations; it++ {
		for _, q := range ctx.Workload {
			p, err := n.Plan(q)
			if err != nil {
				continue
			}
			lat, err := Measure(ctx.Ex, q, p)
			if err != nil {
				continue
			}
			exp = append(exp, costmodel.TrainPlan{Q: q, Plan: p, Latency: lat})
		}
		if err := n.Value.Train(&costmodel.Context{Cat: ctx.Cat, Stats: ctx.Stats, Plans: exp, Seed: ctx.Seed + 71}); err != nil {
			return err
		}
	}
	return nil
}

// beamState is a partial left-deep order under search.
type beamState struct {
	order []string
	score float64
}

// Candidates implements CandidateProvider: the final beam, scored.
func (n *Neo) Candidates(q *query.Query) ([]Candidate, error) {
	finals, err := n.search(q)
	if err != nil {
		return nil, err
	}
	var out []Candidate
	seen := map[string]bool{}
	for _, st := range finals {
		p, err := n.ctx.Base.PlanFromOrder(q, st.order)
		if err != nil {
			continue
		}
		fp := p.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, Candidate{Plan: p, Predicted: n.Value.Predict(q, p)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("learnedopt: neo beam produced no plan")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicted < out[j].Predicted })
	return out, nil
}

// search runs beam search over left-deep join orders, scoring each prefix
// by the value model's latency prediction of the partial plan.
func (n *Neo) search(q *query.Query) ([]beamState, error) {
	g := query.NewJoinGraph(q)
	beam := []beamState{{}}
	total := len(q.Refs)
	for step := 0; step < total; step++ {
		var next []beamState
		for _, st := range beam {
			joined := query.SetOf(st.order)
			for _, r := range q.Refs {
				if joined[r.Alias] {
					continue
				}
				if len(st.order) > 0 && !g.ConnectsTo(r.Alias, joined) && anyConnected(g, joined, q, st.order) {
					continue
				}
				order := append(append([]string{}, st.order...), r.Alias)
				score := n.scorePrefix(q, order)
				next = append(next, beamState{order: order, score: score})
			}
		}
		if len(next) == 0 {
			return nil, fmt.Errorf("learnedopt: neo search stuck at step %d", step)
		}
		sort.Slice(next, func(i, j int) bool { return next[i].score < next[j].score })
		if len(next) > n.Beam {
			keep := next[:n.Beam]
			if n.Epsilon > 0 && n.rng != nil && n.rng.Float64() < n.Epsilon {
				// ε-beam: replace the worst kept slot with a random
				// expansion from outside the beam.
				keep[len(keep)-1] = next[n.Beam+n.rng.Intn(len(next)-n.Beam)]
			}
			next = keep
		}
		beam = next
	}
	return beam, nil
}

// anyConnected reports whether any un-joined alias connects to the set —
// if so, disconnected expansions are pruned.
func anyConnected(g *query.JoinGraph, joined map[string]bool, q *query.Query, order []string) bool {
	for _, r := range q.Refs {
		if !joined[r.Alias] && g.ConnectsTo(r.Alias, joined) {
			return true
		}
	}
	return false
}

// scorePrefix evaluates a partial order: the value model predicts the
// latency of the partial left-deep plan (Neo scores sub-plans with the
// same network that scores complete plans).
func (n *Neo) scorePrefix(q *query.Query, order []string) float64 {
	sub := q.Subquery(query.SetOf(order))
	p, err := n.ctx.Base.PlanFromOrder(sub, order)
	if err != nil {
		return math.Inf(1)
	}
	return n.Value.Predict(sub, p)
}

// Plan implements Optimizer.
func (n *Neo) Plan(q *query.Query) (*plan.Node, error) {
	cands, err := n.Candidates(q)
	if err != nil {
		return nil, err
	}
	return cands[0].Plan, nil
}
