// Package cardest implements the cardinality-estimator taxonomy of the
// tutorial's Table 1: traditional baselines (histogram independence,
// sampling), query-driven learned models (linear, GBDT, QuickSel, MLP,
// MSCN, Robust-MSCN, Fauce), data-driven models (KDE, auto-regressive,
// Bayesian network, SPN, FactorJoin, Iris) and hybrids (UAE, GLUE, ALECE),
// all behind one Estimator interface so optimizers can swap them freely.
package cardest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// newRNG returns a deterministic RNG for the given seed; training code
// derives per-model seeds from Context.Seed so estimator training never
// interferes across models.
func newRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Sample is one labeled training query.
type Sample struct {
	Q    *query.Query
	Card float64
}

// Context carries everything an estimator may train from: the database
// itself (data-driven), table statistics, and a labeled workload
// (query-driven). Seed makes training deterministic.
type Context struct {
	Cat   *data.Catalog
	Stats *stats.CatalogStats
	Train []Sample
	Seed  int64
}

// Estimator is the uniform interface over Table 1's method classes.
type Estimator interface {
	// Name identifies the method (e.g. "mscn", "spn").
	Name() string
	// Train fits the estimator. Query-driven methods use ctx.Train;
	// data-driven methods read ctx.Cat directly; hybrids use both.
	Train(ctx *Context) error
	// Estimate predicts the result cardinality of q. Implementations
	// never return negative or NaN values.
	Estimate(q *query.Query) float64
}

// Class labels the taxonomy row an estimator belongs to (Table 1).
type Class string

// Taxonomy classes from the tutorial's Table 1.
const (
	Traditional Class = "traditional"
	QueryDriven Class = "query-driven"
	DataDriven  Class = "data-driven"
	Hybrid      Class = "hybrid"
)

// Info describes a registered estimator for reporting.
type Info struct {
	Name  string
	Class Class
	Make  func() Estimator
}

// Registry lists every estimator the workbench ships, in Table 1 order.
func Registry() []Info {
	return []Info{
		{"histogram", Traditional, func() Estimator { return NewHistogramEstimator() }},
		{"sampling", Traditional, func() Estimator { return NewSamplingEstimator(0) }},
		{"linear", QueryDriven, func() Estimator { return NewLinearEstimator() }},
		{"gbdt", QueryDriven, func() Estimator { return NewGBDTEstimator() }},
		{"quicksel", QueryDriven, func() Estimator { return NewQuickSel(0) }},
		{"mlp", QueryDriven, func() Estimator { return NewMLPEstimator() }},
		{"mscn", QueryDriven, func() Estimator { return NewMSCN() }},
		{"robust-mscn", QueryDriven, func() Estimator { return NewRobustMSCN() }},
		{"fauce", QueryDriven, func() Estimator { return NewFauce() }},
		{"kde", DataDriven, func() Estimator { return NewKDEEstimator(0) }},
		{"naru", DataDriven, func() Estimator { return NewNaru() }},
		{"bayesnet", DataDriven, func() Estimator { return NewBayesNet() }},
		{"spn", DataDriven, func() Estimator { return NewSPNEstimator() }},
		{"factorjoin", DataDriven, func() Estimator { return NewFactorJoin() }},
		{"iris", DataDriven, func() Estimator { return NewIris() }},
		{"uae", Hybrid, func() Estimator { return NewUAE() }},
		{"glue", Hybrid, func() Estimator { return NewGLUE() }},
		{"alece", Hybrid, func() Estimator { return NewALECE() }},
	}
}

// ByName constructs a registered estimator, or errors.
func ByName(name string) (Estimator, error) {
	for _, inf := range Registry() {
		if inf.Name == name {
			return inf.Make(), nil
		}
	}
	return nil, fmt.Errorf("cardest: unknown estimator %q", name)
}

// clampCard bounds an estimate to [0, Π table rows] — no query can return
// more tuples than the cross product.
func clampCard(est float64, cat *data.Catalog, q *query.Query) float64 {
	max := 1.0
	for _, r := range q.Refs {
		if t := cat.Table(r.Table); t != nil {
			max *= float64(t.NumRows())
		}
	}
	return clampTo(est, max)
}

// clampTo is clampCard with the cross-product bound max computed.
func clampTo(est, max float64) float64 {
	if math.IsNaN(est) || est < 0 {
		return 0
	}
	if est > max {
		return max
	}
	return est
}

// joinFormula is the classical System-R composition shared by the
// per-table data-driven estimators: multiply filtered table cardinalities
// by 1/max(ndv_left, ndv_right) per equi-join edge. tableSel gets each
// ref's table and the query's predicates with the ref's alias; it reads
// only the predicates on that alias, in query order, so no per-alias
// slice is built and a product over them keeps its bits.
func joinFormula(cs *stats.CatalogStats, q *query.Query, tableSel func(table string, preds []query.Pred, alias string) float64) float64 {
	card := 1.0
	for _, r := range q.Refs {
		ts := cs.Tables[r.Table]
		if ts == nil {
			return 0
		}
		card *= ts.Rows * tableSel(r.Table, q.Preds, r.Alias)
	}
	for _, j := range q.Joins {
		card /= joinDivisor(cs, q, j)
	}
	return card
}

// joinDivisor is j's 1/selectivity in joinFormula: the larger distinct
// count of its two columns, at least 1.
func joinDivisor(cs *stats.CatalogStats, q *query.Query, j query.Join) float64 {
	d := math.Max(columnDistinct(cs, q.TableOf(j.LeftAlias), j.LeftCol), columnDistinct(cs, q.TableOf(j.RightAlias), j.RightCol))
	if d < 1 {
		d = 1
	}
	return d
}

// formula is an estimator that composes per-table selectivities through
// joinFormula, clamped: its Estimate, and the same answer for every alias
// subset of a join graph at once. sel must be a pure function of the
// predicates on its alias, which every embedder's tableSel is.
type formula struct {
	cat *data.Catalog
	cs  *stats.CatalogStats
	sel func(table string, preds []query.Pred, alias string) float64
}

// Estimate implements Estimator.
func (f *formula) Estimate(q *query.Query) float64 {
	return clampCard(joinFormula(f.cs, q, f.sel), f.cat, q)
}

// EstimateGraph sets cards[m] to Estimate(g.Sub(m)) for every mask m, bit
// for bit, calling sel once per ref, not once per ref of every mask: a
// sub-query that keeps a ref keeps every predicate on its alias. A ref's
// rows·selectivity (NaN without statistics, which clampTo turns into
// joinFormula's 0), a join's divisor and a table's row count are
// computed once, and each mask multiplies and divides them in its
// sub-query's clause order, as joinFormula and clampCard do. It fails
// before training.
func (f *formula) EstimateGraph(_ context.Context, g *query.JoinGraph, cards []float64) error {
	if f.cs == nil {
		return fmt.Errorf("cardest: a join graph estimated before training")
	}
	q := g.Query()
	refBits, joinBits := g.ClauseBits()
	nr := len(q.Refs)
	buf := make([]float64, 2*nr+len(q.Joins))
	scaled, rows, div := buf[:nr], buf[nr:2*nr], buf[2*nr:]
	for i, r := range q.Refs {
		scaled[i], rows[i] = math.NaN(), 1
		if ts := f.cs.Tables[r.Table]; ts != nil {
			scaled[i] = ts.Rows * f.sel(r.Table, q.Preds, r.Alias)
		}
		if t := f.cat.Table(r.Table); t != nil {
			rows[i] = float64(t.NumRows())
		}
	}
	for i, j := range q.Joins {
		div[i] = joinDivisor(f.cs, q, j)
	}
	for m := range cards {
		mask := uint64(m)
		card, max := 1.0, 1.0
		for i, need := range refBits {
			if need != 0 && need&^mask == 0 {
				card *= scaled[i]
				max *= rows[i]
			}
		}
		for i, need := range joinBits {
			if need != 0 && need&^mask == 0 {
				card /= div[i]
			}
		}
		cards[m] = clampTo(card, max)
	}
	return nil
}

func columnDistinct(cs *stats.CatalogStats, table, col string) float64 {
	ts := cs.Tables[table]
	if ts == nil {
		return 1
	}
	c := ts.Cols[col]
	if c == nil {
		return 1
	}
	return c.Distinct
}

// tableSelFromPreds computes the independence-assumption selectivity of
// the conjunction of the preds on alias using per-column statistics — the
// shared traditional fallback.
func tableSelFromPreds(ts *stats.TableStats, preds []query.Pred, alias string) float64 {
	sel := 1.0
	for _, p := range preds {
		if p.Alias == alias {
			sel *= predSelectivity(ts, p)
		}
	}
	return sel
}

// hasPreds reports whether any of preds is on alias.
func hasPreds(preds []query.Pred, alias string) bool {
	for i := range preds {
		if preds[i].Alias == alias {
			return true
		}
	}
	return false
}

func predSelectivity(ts *stats.TableStats, p query.Pred) float64 {
	cs := ts.Cols[p.Column]
	if cs == nil {
		return 1.0 / 3
	}
	switch p.Op {
	case query.Eq:
		v := p.Val.AsFloat()
		if f, ok := cs.MCVs.Freq(v); ok {
			return f
		}
		return cs.Hist.SelectivityEq(v)
	case query.Ne:
		v := p.Val.AsFloat()
		if f, ok := cs.MCVs.Freq(v); ok {
			return 1 - f
		}
		return 1 - cs.Hist.SelectivityEq(v)
	default:
		lo, hi := p.Bounds(cs.Min, cs.Max)
		return cs.Hist.SelectivityRange(lo, hi)
	}
}

// logCard maps cardinalities to the log domain used as the regression
// target by every query-driven model.
func logCard(c float64) float64 { return math.Log1p(c) }

// unlogCard inverts logCard, clamping at 0.
func unlogCard(l float64) float64 {
	v := math.Expm1(l)
	if v < 0 {
		return 0
	}
	return v
}
