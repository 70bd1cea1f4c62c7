package cardest

import (
	"lqo/internal/query"
)

// HistogramEstimator is the traditional baseline: per-column equi-depth
// histograms + MCV lists combined under the attribute-independence
// assumption, with the System-R 1/max(ndv) formula for equi-joins. It is
// what PostgreSQL does, and what every learned method is measured against.
type HistogramEstimator struct {
	formula // Estimate and EstimateGraph over tableSel
}

// NewHistogramEstimator returns an untrained histogram estimator.
func NewHistogramEstimator() *HistogramEstimator { return &HistogramEstimator{} }

// Name implements Estimator.
func (h *HistogramEstimator) Name() string { return "histogram" }

// Train records the statistics; no learning happens.
func (h *HistogramEstimator) Train(ctx *Context) error {
	h.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: h.tableSel}
	return nil
}

// tableSel is the independence-assumption selectivity of the preds on
// alias from table's per-column statistics.
func (h *HistogramEstimator) tableSel(table string, preds []query.Pred, alias string) float64 {
	return tableSelFromPreds(h.cs.Tables[table], preds, alias)
}
