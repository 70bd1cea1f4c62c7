package cardest

import (
	"math"
	"math/rand"

	"lqo/internal/ml"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// SPNEstimator is the sum-product-network line (DeepDB [17], FLAT [81]):
// each table's joint distribution is a recursively built SPN — sum nodes
// split rows by k-means clustering, product nodes split weakly correlated
// column groups, leaves are per-column histograms — evaluated exactly on
// conjunctive range queries. Joins compose via the System-R formula (the
// fanout-network extension of DeepDB is approximated by FactorJoin's
// bucket method elsewhere in the package).
type SPNEstimator struct {
	// CorrThr is the |corr| above which columns are grouped (default
	// 0.3; ablation E8 sweeps it).
	CorrThr float64

	formula // Estimate and EstimateGraph over tableSel
	tables  map[string]*spnNode
	cols    map[string][]string
}

// spnNode is one SPN node: exactly one of leaf / product / sum is active.
type spnNode struct {
	// Leaf: equi-depth histogram over one column (local rows).
	leafCol  int
	leafHist *stats.Histogram

	// Product node: children over disjoint column groups.
	product []*spnNode

	// Sum node: weighted mixture over row clusters.
	sum     []*spnNode
	weights []float64

	kind spnKind
}

type spnKind int

const (
	spnLeaf spnKind = iota
	spnProduct
	spnSum
)

// NewSPNEstimator returns an untrained SPN estimator.
func NewSPNEstimator() *SPNEstimator {
	return &SPNEstimator{CorrThr: 0.3}
}

// The SPN's structure-learning budget.
const (
	spnMinRows   = 64   // stop splitting below this many rows
	spnMaxDepth  = 8    // recursion cap
	spnLeafBins  = 32   // histogram bins at leaves
	spnTrainRows = 4000 // row sample per table
)

// Name implements Estimator.
func (e *SPNEstimator) Name() string { return "spn" }

// Train builds one SPN per table.
func (e *SPNEstimator) Train(ctx *Context) error {
	e.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: e.tableSel}
	e.tables = make(map[string]*spnNode)
	e.cols = make(map[string][]string)
	rng := rand.New(rand.NewSource(ctx.Seed + 505))
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		n := t.NumRows()
		if n == 0 {
			continue
		}
		step := 1
		if n > spnTrainRows {
			step = n / spnTrainRows
		}
		var rows [][]float64
		for r := 0; r < n; r += step {
			row := make([]float64, len(t.Cols))
			for ci, c := range t.Cols {
				row[ci] = c.Float(r)
			}
			rows = append(rows, row)
		}
		var names []string
		cols := make([]int, len(t.Cols))
		for ci, c := range t.Cols {
			names = append(names, c.Name)
			cols[ci] = ci
		}
		e.cols[tn] = names
		e.tables[tn] = e.build(rows, cols, 1, rng)
	}
	return nil
}

func (e *SPNEstimator) build(rows [][]float64, cols []int, depth int, rng *rand.Rand) *spnNode {
	if len(cols) == 1 {
		return e.leaf(rows, cols[0])
	}
	if len(rows) >= spnMinRows && depth < spnMaxDepth {
		groups := e.correlationGroups(rows, cols)
		if len(groups) > 1 {
			n := &spnNode{kind: spnProduct}
			for _, g := range groups {
				n.product = append(n.product, e.build(rows, g, depth+1, rng))
			}
			return n
		}
		// All columns correlated: split rows.
		if len(rows) >= 2*spnMinRows {
			norm := e.normalizeRows(rows, cols)
			km := ml.KMeans(norm, 2, 10, rng)
			var a, b [][]float64
			for i, row := range rows {
				if km.Assign[i] == 0 {
					a = append(a, row)
				} else {
					b = append(b, row)
				}
			}
			if len(a) > 0 && len(b) > 0 {
				n := &spnNode{kind: spnSum}
				tot := float64(len(rows))
				n.sum = []*spnNode{e.build(a, cols, depth+1, rng), e.build(b, cols, depth+1, rng)}
				n.weights = []float64{float64(len(a)) / tot, float64(len(b)) / tot}
				return n
			}
		}
	}
	// Fallback: independence product of leaves.
	n := &spnNode{kind: spnProduct}
	for _, c := range cols {
		n.product = append(n.product, e.leaf(rows, c))
	}
	return n
}

func (e *SPNEstimator) normalizeRows(rows [][]float64, cols []int) [][]float64 {
	mins := make([]float64, len(cols))
	maxs := make([]float64, len(cols))
	for j, c := range cols {
		mins[j], maxs[j] = math.Inf(1), math.Inf(-1)
		for _, row := range rows {
			if row[c] < mins[j] {
				mins[j] = row[c]
			}
			if row[c] > maxs[j] {
				maxs[j] = row[c]
			}
		}
	}
	out := make([][]float64, len(rows))
	for i, row := range rows {
		v := make([]float64, len(cols))
		for j, c := range cols {
			if maxs[j] > mins[j] {
				v[j] = (row[c] - mins[j]) / (maxs[j] - mins[j])
			}
		}
		out[i] = v
	}
	return out
}

// correlationGroups partitions cols into connected components of the
// |pearson correlation| > CorrThr graph.
func (e *SPNEstimator) correlationGroups(rows [][]float64, cols []int) [][]int {
	k := len(cols)
	adj := make([][]bool, k)
	for i := range adj {
		adj[i] = make([]bool, k)
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if math.Abs(pearson(rows, cols[i], cols[j])) > e.CorrThr {
				adj[i][j], adj[j][i] = true, true
			}
		}
	}
	seen := make([]bool, k)
	var groups [][]int
	for i := 0; i < k; i++ {
		if seen[i] {
			continue
		}
		var g []int
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g = append(g, cols[v])
			for w := 0; w < k; w++ {
				if adj[v][w] && !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		groups = append(groups, g)
	}
	return groups
}

func pearson(rows [][]float64, a, b int) float64 {
	n := float64(len(rows))
	if n < 2 {
		return 0
	}
	var sa, sb, saa, sbb, sab float64
	for _, r := range rows {
		sa += r[a]
		sb += r[b]
		saa += r[a] * r[a]
		sbb += r[b] * r[b]
		sab += r[a] * r[b]
	}
	cov := sab/n - (sa/n)*(sb/n)
	va := saa/n - (sa/n)*(sa/n)
	vb := sbb/n - (sb/n)*(sb/n)
	if va <= 0 || vb <= 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

func (e *SPNEstimator) leaf(rows [][]float64, col int) *spnNode {
	vals := make([]float64, len(rows))
	for i, r := range rows {
		vals[i] = r[col]
	}
	return &spnNode{
		kind:     spnLeaf,
		leafCol:  col,
		leafHist: stats.BuildHistogramFromValues(vals, spnLeafBins),
	}
}

// prob evaluates P(box) on the SPN: box[ci] is nil (unconstrained) or a
// [lo, hi] closed range.
func (n *spnNode) prob(box [][2]float64, constrained []bool) float64 {
	switch n.kind {
	case spnLeaf:
		if !constrained[n.leafCol] {
			return 1
		}
		lo, hi := box[n.leafCol][0], box[n.leafCol][1]
		if lo == hi {
			return n.leafHist.SelectivityEq(lo)
		}
		return n.leafHist.SelectivityRange(lo, hi)
	case spnProduct:
		p := 1.0
		for _, ch := range n.product {
			p *= ch.prob(box, constrained)
		}
		return p
	default: // spnSum
		p := 0.0
		for i, ch := range n.sum {
			p += n.weights[i] * ch.prob(box, constrained)
		}
		return p
	}
}

// spnStackCols is the widest table whose predicate box tableSel keeps on
// the stack; a wider one allocates its box.
const spnStackCols = 16

// tableSel evaluates table tn's SPN on the box of the predicates on alias.
func (e *SPNEstimator) tableSel(tn string, preds []query.Pred, alias string) float64 {
	root := e.tables[tn]
	ts := e.cs.Tables[tn]
	if root == nil || ts == nil {
		return tableSelFromPreds(ts, preds, alias)
	}
	if !hasPreds(preds, alias) {
		return 1
	}
	names := e.cols[tn]
	var boxBuf [spnStackCols][2]float64
	var constrainedBuf [spnStackCols]bool
	box, constrained := boxBuf[:], constrainedBuf[:]
	if len(names) > spnStackCols {
		box, constrained = make([][2]float64, len(names)), make([]bool, len(names))
	}
	box, constrained = box[:len(names)], constrained[:len(names)]
	for i := range box {
		box[i] = [2]float64{math.Inf(-1), math.Inf(1)}
	}
	for _, p := range preds {
		if p.Alias != alias {
			continue
		}
		for i, name := range names {
			if name != p.Column {
				continue
			}
			csCol := ts.Cols[p.Column]
			lo, hi := p.Bounds(csCol.Min, csCol.Max)
			if p.Op == query.Eq {
				lo, hi = p.Val.AsFloat(), p.Val.AsFloat()
			}
			if lo > box[i][0] {
				box[i][0] = lo
			}
			if hi < box[i][1] {
				box[i][1] = hi
			}
			constrained[i] = true
		}
	}
	return root.prob(box, constrained)
}
