package cardest

import (
	"math"
	"slices"

	"lqo/internal/query"
)

// KDEEstimator is the kernel-density line of work [14, 21]: per-table
// Gaussian product kernels centered on sampled rows, with bandwidths set
// by Scott's rule. Range probability integrates the kernel CDF per column;
// joins compose via the System-R formula (the bandwidth-optimized join
// KDE of [21] is approximated by this composition).
type KDEEstimator struct {
	formula // Estimate and EstimateGraph over tableSel
	tables  map[string]*kdeTable
}

type kdeTable struct {
	cols   []string
	points [][]float64 // center per sample row
	bw     []float64   // bandwidth per column
}

// kdeSampleRows caps kernel centers per table.
const kdeSampleRows = 300

// NewKDEEstimator returns a KDE estimator.
func NewKDEEstimator() *KDEEstimator { return &KDEEstimator{} }

// Name implements Estimator.
func (e *KDEEstimator) Name() string { return "kde" }

// Train builds per-table kernel models from the statistics samples.
func (e *KDEEstimator) Train(ctx *Context) error {
	e.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: e.tableSel}
	e.tables = make(map[string]*kdeTable)
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		ts := ctx.Stats.Tables[tn]
		rows := ts.Sample
		if len(rows) > kdeSampleRows {
			rows = rows[:kdeSampleRows]
		}
		if len(rows) == 0 {
			continue
		}
		kt := &kdeTable{}
		for _, c := range t.Cols {
			kt.cols = append(kt.cols, c.Name)
		}
		kt.points = make([][]float64, len(rows))
		for i, r := range rows {
			pt := make([]float64, len(t.Cols))
			for ci, c := range t.Cols {
				pt[ci] = c.Float(int(r))
			}
			kt.points[i] = pt
		}
		// Scott's rule per column: h = sigma * n^(-1/(d+4)), d=1 per-column.
		n := float64(len(rows))
		kt.bw = make([]float64, len(t.Cols))
		for ci := range t.Cols {
			mean, sq := 0.0, 0.0
			for _, pt := range kt.points {
				mean += pt[ci]
			}
			mean /= n
			for _, pt := range kt.points {
				d := pt[ci] - mean
				sq += d * d
			}
			sigma := math.Sqrt(sq / n)
			h := sigma * math.Pow(n, -0.2)
			if h < 0.5 {
				h = 0.5 // integer domains: at least half a value
			}
			kt.bw[ci] = h
		}
		e.tables[tn] = kt
	}
	return nil
}

// normCDF is the standard normal CDF.
func normCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// tableSel estimates the selectivity of the preds on alias over table tn
// by averaging per-kernel range probabilities.
func (e *KDEEstimator) tableSel(tn string, preds []query.Pred, alias string) float64 {
	kt := e.tables[tn]
	if !hasPreds(preds, alias) {
		return 1
	}
	if kt == nil {
		return tableSelFromPreds(e.cs.Tables[tn], preds, alias)
	}
	type rng struct {
		lo, hi float64
		ci     int
	}
	var buf [8]rng
	ranges := buf[:0]
	for _, p := range preds {
		ci := slices.Index(kt.cols, p.Column)
		if p.Alias != alias || ci < 0 {
			continue
		}
		csCol := e.cs.Tables[tn].Cols[p.Column]
		lo, hi := p.Bounds(csCol.Min, csCol.Max)
		if p.Op == query.Eq {
			lo, hi = p.Val.AsFloat()-0.5, p.Val.AsFloat()+0.5
		}
		ranges = append(ranges, rng{lo, hi, ci})
	}
	if len(ranges) == 0 {
		return 1
	}
	total := 0.0
	for _, pt := range kt.points {
		prob := 1.0
		for _, r := range ranges {
			h := kt.bw[r.ci]
			prob *= normCDF((r.hi-pt[r.ci])/h) - normCDF((r.lo-pt[r.ci])/h)
		}
		total += prob
	}
	sel := total / float64(len(kt.points))
	if sel < 0 {
		sel = 0
	}
	return sel
}
