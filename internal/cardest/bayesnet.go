package cardest

import (
	"math"
	"slices"

	"lqo/internal/data"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// BayesNet is the probabilistic-graphical-model line [57, 65]: per table, a
// Chow-Liu tree over binned columns (maximum-spanning-tree on pairwise
// mutual information) with smoothed conditional probability tables, and
// exact message-passing inference for conjunctive range queries. Joins
// compose via the System-R formula, as in the original per-table PGMs.
type BayesNet struct {
	formula // Estimate and EstimateGraph over tableSel
	tables  map[string]*bnTable
}

type bnTable struct {
	binnedCols
	parent []int       // parent column index, -1 for root
	order  []int       // topological order (root first)
	cpt    [][]float64 // cpt[ci]: root → marginal (len bins); else P(child|parent) row-major [parentBin*bins+childBin]
}

// NewBayesNet returns an untrained Chow-Liu estimator.
func NewBayesNet() *BayesNet { return &BayesNet{} }

// BayesNet's binning and row sample.
const (
	bnBins      = 16   // per-column bins
	bnTrainRows = 4000 // row sample per table
)

// Name implements Estimator.
func (e *BayesNet) Name() string { return "bayesnet" }

// Train learns one tree-structured network per table.
func (e *BayesNet) Train(ctx *Context) error {
	e.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: e.tableSel}
	e.tables = make(map[string]*bnTable)
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		if t.NumRows() == 0 || len(t.Cols) == 0 {
			continue
		}
		e.tables[tn] = e.trainTable(t)
	}
	return nil
}

func (e *BayesNet) trainTable(t *data.Table) *bnTable {
	nc := len(t.Cols)
	bt := &bnTable{binnedCols: newBinnedCols(t, bnBins), parent: make([]int, nc)}
	// Bin a row sample.
	n := t.NumRows()
	step := 1
	if n > bnTrainRows {
		step = n / bnTrainRows
	}
	var binned [][]int
	for r := 0; r < n; r += step {
		row := make([]int, nc)
		for ci, c := range t.Cols {
			row[ci] = binOf(bt.bounds[ci], c.Float(r))
		}
		binned = append(binned, row)
	}
	m := float64(len(binned))

	// Pairwise mutual information.
	marg := make([][]float64, nc)
	for ci := range marg {
		marg[ci] = make([]float64, bnBins)
	}
	for _, row := range binned {
		for ci, b := range row {
			marg[ci][b]++
		}
	}
	mi := func(a, b int) float64 {
		joint := make([]float64, bnBins*bnBins)
		for _, row := range binned {
			joint[row[a]*bnBins+row[b]]++
		}
		v := 0.0
		for i := 0; i < bnBins; i++ {
			for j := 0; j < bnBins; j++ {
				pij := joint[i*bnBins+j] / m
				if pij == 0 {
					continue
				}
				pi, pj := marg[a][i]/m, marg[b][j]/m
				v += pij * math.Log(pij/(pi*pj))
			}
		}
		return v
	}

	// Prim's maximum spanning tree rooted at column 0.
	inTree := make([]bool, nc)
	bestMI := make([]float64, nc)
	bestPar := make([]int, nc)
	for i := range bestMI {
		bestMI[i] = -1
		bestPar[i] = -1
	}
	inTree[0] = true
	bt.parent[0] = -1
	bt.order = []int{0}
	for i := 1; i < nc; i++ {
		bestMI[i] = mi(0, i)
		bestPar[i] = 0
	}
	for len(bt.order) < nc {
		pick, best := -1, -1.0
		for i := 0; i < nc; i++ {
			if !inTree[i] && bestMI[i] > best {
				best, pick = bestMI[i], i
			}
		}
		inTree[pick] = true
		bt.parent[pick] = bestPar[pick]
		bt.order = append(bt.order, pick)
		for i := 0; i < nc; i++ {
			if !inTree[i] {
				if v := mi(pick, i); v > bestMI[i] {
					bestMI[i], bestPar[i] = v, pick
				}
			}
		}
	}

	// CPTs with Laplace smoothing.
	bt.cpt = make([][]float64, nc)
	for _, ci := range bt.order {
		p := bt.parent[ci]
		if p < 0 {
			tbl := make([]float64, bnBins)
			for b := 0; b < bnBins; b++ {
				tbl[b] = (marg[ci][b] + 1) / (m + float64(bnBins))
			}
			bt.cpt[ci] = tbl
			continue
		}
		tbl := make([]float64, bnBins*bnBins)
		for _, row := range binned {
			tbl[row[p]*bnBins+row[ci]]++
		}
		for pb := 0; pb < bnBins; pb++ {
			sum := 0.0
			for cb := 0; cb < bnBins; cb++ {
				sum += tbl[pb*bnBins+cb]
			}
			for cb := 0; cb < bnBins; cb++ {
				tbl[pb*bnBins+cb] = (tbl[pb*bnBins+cb] + 1) / (sum + float64(bnBins))
			}
		}
		bt.cpt[ci] = tbl
	}
	return bt
}

// binnedCols is a table's columns cut into equi-depth bins: the domain
// the Bayesian network and Naru's auto-regressive model learn over.
type binnedCols struct {
	cols   []string
	bounds [][]float64 // per column: bin upper bounds (len bins)
	bins   int
}

func newBinnedCols(t *data.Table, bins int) binnedCols {
	b := binnedCols{bins: bins}
	for _, c := range t.Cols {
		b.cols = append(b.cols, c.Name)
		b.bounds = append(b.bounds, quantileBounds(c, bins))
	}
	return b
}

// allowedBins returns per column nil (free) or the mask of the bins that
// overlap the ranges of the predicates on alias at all (coarse: bin
// granularity bounds the error).
func (bc *binnedCols) allowedBins(ts *stats.TableStats, preds []query.Pred, alias string) [][]bool {
	allowed := make([][]bool, len(bc.cols))
	for _, p := range preds {
		ci := slices.Index(bc.cols, p.Column)
		if p.Alias != alias || ci < 0 {
			continue
		}
		csCol := ts.Cols[p.Column]
		mask := allowed[ci]
		if mask == nil {
			mask = make([]bool, bc.bins)
			for b := range mask {
				mask[b] = true
			}
		}
		lo, hi := p.Bounds(csCol.Min, csCol.Max)
		for b := 0; b < bc.bins; b++ {
			blo := csCol.Min
			if b > 0 {
				blo = bc.bounds[ci][b-1]
			}
			bhi := bc.bounds[ci][b]
			if bhi < lo || blo > hi {
				mask[b] = false
			}
		}
		allowed[ci] = mask
	}
	return allowed
}

// inferSel computes P(all constrained columns within their masks) by
// bottom-up message passing over the tree.
func (bt *bnTable) inferSel(allowed [][]bool) float64 {
	nc := len(bt.cols)
	children := make([][]int, nc)
	for ci, p := range bt.parent {
		if p >= 0 {
			children[p] = append(children[p], ci)
		}
	}
	// msg(ci)[pb] = P(subtree of ci consistent with masks | parent bin pb).
	cache := make([][]float64, nc)
	var msg func(ci int) []float64
	msg = func(ci int) []float64 {
		if cache[ci] != nil {
			return cache[ci]
		}
		out := make([]float64, bt.bins)
		for pb := 0; pb < bt.bins; pb++ {
			s := 0.0
			for cb := 0; cb < bt.bins; cb++ {
				if allowed[ci] != nil && !allowed[ci][cb] {
					continue
				}
				prod := bt.cpt[ci][pb*bt.bins+cb]
				for _, ch := range children[ci] {
					prod *= msg(ch)[cb]
				}
				s += prod
			}
			out[pb] = s
		}
		cache[ci] = out
		return out
	}

	root := bt.order[0]
	total := 0.0
	for rb := 0; rb < bt.bins; rb++ {
		if allowed[root] != nil && !allowed[root][rb] {
			continue
		}
		prod := bt.cpt[root][rb]
		for _, ch := range children[root] {
			prod *= msg(ch)[rb]
		}
		total += prod
	}
	return total
}

// tableSel infers the selectivity of the preds on alias from table tn's
// Chow-Liu tree.
func (e *BayesNet) tableSel(tn string, preds []query.Pred, alias string) float64 {
	if !hasPreds(preds, alias) {
		return 1
	}
	bt := e.tables[tn]
	ts := e.cs.Tables[tn]
	if bt == nil || ts == nil {
		return tableSelFromPreds(ts, preds, alias)
	}
	return bt.inferSel(bt.allowedBins(ts, preds, alias))
}
