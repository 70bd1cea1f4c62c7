// Package costmodel implements the learned cost-model taxonomy of the
// tutorial's Section 2.1.2: plan-featurized regressors ([39]'s plan-level
// models via MLP and GBDT), a recursive tree-structured network (the
// TreeConv/Tree-LSTM line [39, 51]), a calibrated cost model (BASE [5]), a
// zero-shot transferable variant [16], and a concurrent-query model
// (GPredictor line [78, 20, 31]) — all behind one Model interface and all
// trained on (plan, measured latency) pairs from the workbench executor.
package costmodel

import (
	"fmt"
	"math"
	"time"

	"lqo/internal/cost"
	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// TrainPlan is one training example: an executed physical plan (annotated
// with EstCard per node) and its measured latency in executor work units.
type TrainPlan struct {
	Q       *query.Query
	Plan    *plan.Node
	Latency float64
	// PerOp holds per-operator actuals from the executor's telemetry, when
	// the collector ran with EXPLAIN ANALYZE-level instrumentation. Optional:
	// models that only need the root label ignore it; sub-plan expansion
	// (Neo-style training on sub-plan latencies) requires it.
	PerOp []OpActual
}

// OpActual is one operator's measured execution evidence, the per-node
// training feature the tutorial's diagnosis line calls for: what the
// operator actually produced and what it actually cost.
type OpActual struct {
	Node        *plan.Node    // the plan node (aliases into TrainPlan.Plan)
	Rows        float64       // actual output cardinality
	Work        float64       // work units charged to this operator alone
	SubtreeWork float64       // work units of the whole subtree — the sub-plan latency label
	Wall        time.Duration // wall-clock inside the operator
}

// ExpandSubPlans turns one per-operator-instrumented example into a
// sample per sub-plan: the root example plus, for every recorded
// operator below the root, the sub-plan with its subtree work as the
// latency label. This is how Neo [PAPERS.md] multiplies its training
// corpus — one execution labels every sub-plan, not just the query.
// Examples without PerOp pass through unchanged.
func ExpandSubPlans(tp TrainPlan) []TrainPlan {
	out := []TrainPlan{tp}
	for _, oa := range tp.PerOp {
		if oa.Node == nil || oa.Node == tp.Plan {
			continue
		}
		out = append(out, TrainPlan{
			Q:       oa.Node.Subquery(tp.Q),
			Plan:    oa.Node,
			Latency: oa.SubtreeWork,
		})
	}
	return out
}

// Context carries training inputs for learned cost models.
type Context struct {
	Cat   *data.Catalog
	Stats *stats.CatalogStats
	Plans []TrainPlan
	Seed  int64
	// SubPlans, when set, trains on every recorded sub-plan (via
	// ExpandSubPlans) instead of only root plans. Requires the collector
	// to have filled TrainPlan.PerOp.
	SubPlans bool
}

// TrainingSet returns the training corpus models should fit on: Plans
// as-is, or expanded to sub-plan samples when SubPlans is set.
func (c *Context) TrainingSet() []TrainPlan {
	if !c.SubPlans {
		return c.Plans
	}
	var out []TrainPlan
	for _, tp := range c.Plans {
		out = append(out, ExpandSubPlans(tp)...)
	}
	return out
}

// Model predicts the latency (work units) of a physical plan.
type Model interface {
	// Name identifies the model.
	Name() string
	// Train fits the model on executed plans.
	Train(ctx *Context) error
	// Predict returns the predicted latency of a plan whose EstCard
	// annotations are filled. Never negative or NaN.
	Predict(q *query.Query, p *plan.Node) float64
}

// Info describes a registered cost model.
type Info struct {
	Name string
	Make func() Model
}

// Registry lists every cost model the workbench ships.
func Registry() []Info {
	return []Info{
		{"traditional", func() Model { return NewTraditional() }},
		{"calibrated", func() Model { return NewCalibrated() }},
		{"gbdt-cost", func() Model { return NewGBDTCost(false) }},
		{"zeroshot", func() Model { return NewGBDTCost(true) }},
		{"mlp-cost", func() Model { return NewMLPCost() }},
		{"treeconv", func() Model { return NewTreeConv() }},
		{"multitask", func() Model { return NewMultiTask() }},
	}
}

// Traditional wraps the rule-based cost model as a latency predictor —
// the baseline every learned model is compared against in E3.
type Traditional struct {
	cm *cost.Model
}

// NewTraditional returns the rule-based baseline.
func NewTraditional() *Traditional { return &Traditional{} }

// Name implements Model.
func (m *Traditional) Name() string { return "traditional" }

// Train records statistics; nothing is learned.
func (m *Traditional) Train(ctx *Context) error {
	m.cm = cost.New(ctx.Stats)
	return nil
}

// Predict implements Model.
func (m *Traditional) Predict(q *query.Query, p *plan.Node) float64 {
	c := m.cm.PlanCost(p.Clone())
	if c < 0 || math.IsNaN(c) {
		return 0
	}
	return c
}

// Calibrated is the BASE-style model [5]: the traditional cost has the
// right ordering but wrong scale, so learn a monotone log-linear mapping
// cost → latency from executed plans.
type Calibrated struct {
	cm   *cost.Model
	a, b float64 // log latency ≈ a·log cost + b
}

// NewCalibrated returns an untrained calibrated cost model.
func NewCalibrated() *Calibrated { return &Calibrated{} }

// Name implements Model.
func (m *Calibrated) Name() string { return "calibrated" }

// Train fits the log-linear calibration by least squares.
func (m *Calibrated) Train(ctx *Context) error {
	m.cm = cost.New(ctx.Stats)
	plans := ctx.TrainingSet()
	if len(plans) == 0 {
		return fmt.Errorf("costmodel: calibrated model needs executed plans")
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(plans))
	for _, tp := range plans {
		x := math.Log1p(m.cm.PlanCost(tp.Plan.Clone()))
		y := math.Log1p(tp.Latency)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den <= 1e-12 {
		m.a, m.b = 1, 0
		return nil
	}
	m.a = (n*sxy - sx*sy) / den
	m.b = (sy - m.a*sx) / n
	return nil
}

// Predict implements Model.
func (m *Calibrated) Predict(q *query.Query, p *plan.Node) float64 {
	x := math.Log1p(m.cm.PlanCost(p.Clone()))
	v := math.Expm1(m.a*x + m.b)
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
