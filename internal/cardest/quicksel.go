package cardest

import (
	"math/rand"
	"sort"

	"lqo/internal/ml"
	"lqo/internal/query"
)

// QuickSel [47] models each table's selectivity function as a mixture of
// uniform distributions over hyperrectangles subsampled from the training
// queries' predicate boxes, with weights fit by regularized least squares
// on the observed selectivities. Joins compose per-table selectivities via
// the System-R formula.
//
// Simplification vs. the paper: the non-negativity/simplex constraint on
// mixture weights is enforced by clipping + renormalization instead of
// quadratic programming.
type QuickSel struct {
	formula // Estimate and EstimateGraph over tableSel
	f       *Featurizer
	models  map[string]*quickselTable
}

type quickselTable struct {
	cols    []ColKey
	boxes   [][2][]float64 // component hyperrectangles in [0,1]^d
	weights []float64
}

// quickselComponents is the mixture size per table.
const quickselComponents = 30

// NewQuickSel returns a QuickSel estimator.
func NewQuickSel() *QuickSel { return &QuickSel{} }

// Name implements Estimator.
func (e *QuickSel) Name() string { return "quicksel" }

// Train fits one mixture per table from the single-table selectivities
// observable in the workload (per-table sub-predicates of every sample
// whose query touches the table alone get exact labels; multi-table
// samples contribute their per-table boxes with histogram-labeled
// selectivities as weak supervision).
func (e *QuickSel) Train(ctx *Context) error {
	e.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: e.tableSel}
	e.f = NewFeaturizer(ctx.Cat, ctx.Stats, ctx.Train)
	e.models = make(map[string]*quickselTable)
	rng := rand.New(rand.NewSource(ctx.Seed + 303))

	type obs struct {
		box [2][]float64
		sel float64
	}
	perTable := map[string][]obs{}
	for _, s := range ctx.Train {
		if len(s.Q.Refs) == 1 {
			tn := s.Q.Refs[0].Table
			rows := e.cs.Tables[tn].Rows
			if rows == 0 {
				continue
			}
			box := e.queryBox(tn, s.Q.Preds, s.Q.Refs[0].Alias)
			perTable[tn] = append(perTable[tn], obs{box, s.Card / rows})
			continue
		}
		// Weak supervision from multi-table samples: label each table's box
		// with the histogram selectivity (keeps boxes covering the space).
		for _, r := range s.Q.Refs {
			if !hasPreds(s.Q.Preds, r.Alias) {
				continue
			}
			ts := e.cs.Tables[r.Table]
			perTable[r.Table] = append(perTable[r.Table], obs{e.queryBox(r.Table, s.Q.Preds, r.Alias), tableSelFromPreds(ts, s.Q.Preds, r.Alias)})
		}
	}

	// The tables share rng, so they train in a fixed order.
	tables := make([]string, 0, len(perTable))
	for tn := range perTable {
		tables = append(tables, tn)
	}
	sort.Strings(tables)
	for _, tn := range tables {
		observations := perTable[tn]
		cols := e.tableCols(tn)
		if len(observations) < 3 {
			continue
		}
		mt := &quickselTable{cols: cols}
		k := quickselComponents
		if k > len(observations)*2 {
			k = len(observations) * 2
		}
		// Subsample component boxes from the observed query boxes, jittered.
		for j := 0; j < k; j++ {
			src := observations[rng.Intn(len(observations))].box
			box := [2][]float64{append([]float64(nil), src[0]...), append([]float64(nil), src[1]...)}
			for d := range box[0] {
				w := box[1][d] - box[0][d]
				shift := (rng.Float64() - 0.5) * 0.2 * (1 - w)
				box[0][d] = clamp01(box[0][d] + shift)
				box[1][d] = clamp01(box[1][d] + shift)
				if box[1][d] < box[0][d] {
					box[0][d], box[1][d] = box[1][d], box[0][d]
				}
			}
			mt.boxes = append(mt.boxes, box)
		}
		// Least squares on component responses.
		xs := make([][]float64, len(observations))
		ys := make([]float64, len(observations))
		for i, o := range observations {
			row := make([]float64, len(mt.boxes))
			for j, b := range mt.boxes {
				row[j] = boxOverlapDensity(o.box, b)
			}
			xs[i] = row
			ys[i] = o.sel
		}
		r, err := ml.FitRidge(xs, ys, 0.05)
		if err != nil {
			continue
		}
		mt.weights = make([]float64, len(mt.boxes))
		total := 0.0
		for j := range mt.weights {
			w := r.W[j]
			if w < 0 {
				w = 0
			}
			mt.weights[j] = w
			total += w
		}
		if total > 0 {
			for j := range mt.weights {
				mt.weights[j] /= total
			}
		}
		e.models[tn] = mt
	}
	return nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func (e *QuickSel) tableCols(tn string) []ColKey {
	var out []ColKey
	for _, k := range e.f.Columns {
		if k.Table == tn {
			out = append(out, k)
		}
	}
	return out
}

// queryBox converts the conjunction of the preds on alias into a
// normalized box over table tn's columns ([0,1] per unconstrained column).
func (e *QuickSel) queryBox(tn string, preds []query.Pred, alias string) [2][]float64 {
	cols := e.tableCols(tn)
	lo := make([]float64, len(cols))
	hi := make([]float64, len(cols))
	for i := range hi {
		hi[i] = 1
	}
	for _, p := range preds {
		for i, k := range cols {
			if p.Alias != alias || k.Column != p.Column {
				continue
			}
			plo, phi := p.Bounds(e.colRange(k))
			nlo, nhi := e.f.Normalize(k, plo), e.f.Normalize(k, phi)
			if nlo > lo[i] {
				lo[i] = nlo
			}
			if nhi < hi[i] {
				hi[i] = nhi
			}
		}
	}
	return [2][]float64{lo, hi}
}

// colRange returns the column's statistics range, [0, 1] without any.
func (e *QuickSel) colRange(k ColKey) (lo, hi float64) {
	if ts := e.cs.Tables[k.Table]; ts != nil && ts.Cols[k.Column] != nil {
		return ts.Cols[k.Column].Min, ts.Cols[k.Column].Max
	}
	return 0, 1
}

// boxOverlapDensity returns vol(q ∩ b)/vol(b): the probability mass a
// uniform component b assigns to the query box q.
func boxOverlapDensity(q, b [2][]float64) float64 {
	density := 1.0
	for d := range q[0] {
		blo, bhi := b[0][d], b[1][d]
		qlo, qhi := q[0][d], q[1][d]
		bw := bhi - blo
		if bw <= 1e-9 {
			// Degenerate (point) component: inside-or-out.
			if blo >= qlo && blo <= qhi {
				continue
			}
			return 0
		}
		olo, ohi := maxf(blo, qlo), minf(bhi, qhi)
		if ohi <= olo {
			return 0
		}
		density *= (ohi - olo) / bw
	}
	return density
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// tableSel is the mixture density of table tn's model over the box of
// the preds on alias.
func (e *QuickSel) tableSel(tn string, preds []query.Pred, alias string) float64 {
	if !hasPreds(preds, alias) {
		return 1
	}
	mt := e.models[tn]
	if mt == nil {
		return tableSelFromPreds(e.cs.Tables[tn], preds, alias)
	}
	box := e.queryBox(tn, preds, alias)
	sel := 0.0
	for j, b := range mt.boxes {
		sel += mt.weights[j] * boxOverlapDensity(box, b)
	}
	if sel <= 0 {
		return tableSelFromPreds(e.cs.Tables[tn], preds, alias)
	}
	return sel
}
