package cardest

import (
	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// HistogramEstimator is the traditional baseline: per-column equi-depth
// histograms + MCV lists combined under the attribute-independence
// assumption, with the System-R 1/max(ndv) formula for equi-joins. It is
// what PostgreSQL does, and what every learned method is measured against.
type HistogramEstimator struct {
	cat *data.Catalog
	cs  *stats.CatalogStats
}

// NewHistogramEstimator returns an untrained histogram estimator.
func NewHistogramEstimator() *HistogramEstimator { return &HistogramEstimator{} }

// Name implements Estimator.
func (h *HistogramEstimator) Name() string { return "histogram" }

// Train records the statistics; no learning happens.
func (h *HistogramEstimator) Train(ctx *Context) error {
	h.cat = ctx.Cat
	h.cs = ctx.Stats
	return nil
}

// Estimate implements Estimator.
func (h *HistogramEstimator) Estimate(q *query.Query) float64 {
	est := joinFormula(h.cs, q, func(table string, preds []query.Pred, alias string) float64 {
		return tableSelFromPreds(h.cs.Tables[table], preds, alias)
	})
	return clampCard(est, h.cat, q)
}
