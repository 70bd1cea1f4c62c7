package ml

import (
	"math"
	"sort"
)

// TreeNode is a node in a CART regression tree.
type TreeNode struct {
	Feature   int     // split feature (-1 for leaf)
	Threshold float64 // go left if x[Feature] <= Threshold
	Value     float64 // leaf prediction
	Left      *TreeNode
	Right     *TreeNode
}

// IsLeaf reports whether the node is a leaf.
func (n *TreeNode) IsLeaf() bool { return n.Feature < 0 }

// Predict evaluates the tree on x.
func (n *TreeNode) Predict(x []float64) float64 {
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// TreeOptions configures regression-tree induction.
type TreeOptions struct {
	MaxDepth    int // default 6
	MinLeafSize int // default 4
}

func (o TreeOptions) withDefaults() TreeOptions {
	if o.MaxDepth == 0 {
		o.MaxDepth = 6
	}
	if o.MinLeafSize == 0 {
		o.MinLeafSize = 4
	}
	return o
}

// BuildTree fits a CART regression tree minimizing squared error.
func BuildTree(xs [][]float64, ys []float64, opts TreeOptions) *TreeNode {
	opts = opts.withDefaults()
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	return buildTree(xs, ys, idx, opts, 1)
}

func buildTree(xs [][]float64, ys []float64, idx []int, opts TreeOptions, depth int) *TreeNode {
	mean := 0.0
	for _, i := range idx {
		mean += ys[i]
	}
	if len(idx) > 0 {
		mean /= float64(len(idx))
	}
	leaf := &TreeNode{Feature: -1, Value: mean}
	if depth >= opts.MaxDepth || len(idx) < 2*opts.MinLeafSize {
		return leaf
	}
	feat, thr, ok := bestSplit(xs, ys, idx, opts.MinLeafSize)
	if !ok {
		return leaf
	}
	var li, ri []int
	for _, i := range idx {
		if xs[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) < opts.MinLeafSize || len(ri) < opts.MinLeafSize {
		return leaf
	}
	return &TreeNode{
		Feature:   feat,
		Threshold: thr,
		Left:      buildTree(xs, ys, li, opts, depth+1),
		Right:     buildTree(xs, ys, ri, opts, depth+1),
	}
}

// bestSplit finds the (feature, threshold) minimizing total squared error,
// scanning sorted feature values with running sums.
func bestSplit(xs [][]float64, ys []float64, idx []int, minLeaf int) (int, float64, bool) {
	if len(idx) == 0 {
		return 0, 0, false
	}
	nf := len(xs[idx[0]])
	bestGain := -1.0
	bestFeat, bestThr := -1, 0.0

	var sumAll, sqAll float64
	for _, i := range idx {
		sumAll += ys[i]
		sqAll += ys[i] * ys[i]
	}
	n := float64(len(idx))
	baseSSE := sqAll - sumAll*sumAll/n

	order := make([]int, len(idx))
	for f := 0; f < nf; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return xs[order[a]][f] < xs[order[b]][f] })
		var sumL, sqL float64
		for k := 0; k+1 < len(order); k++ {
			i := order[k]
			sumL += ys[i]
			sqL += ys[i] * ys[i]
			if k+1 < minLeaf || len(order)-k-1 < minLeaf {
				continue
			}
			xv, xn := xs[order[k]][f], xs[order[k+1]][f]
			if xv == xn {
				continue
			}
			nl := float64(k + 1)
			nr := n - nl
			sumR := sumAll - sumL
			sqR := sqAll - sqL
			sse := (sqL - sumL*sumL/nl) + (sqR - sumR*sumR/nr)
			gain := baseSSE - sse
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThr = (xv + xn) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return 0, 0, false
	}
	return bestFeat, bestThr, true
}

// GBDT is a gradient-boosted ensemble of regression trees with squared
// loss — the workbench's stand-in for XGBoost/LightGBM [9, 10].
type GBDT struct {
	Trees     []*TreeNode
	LearnRate float64
	Base      float64
}

// GBDTOptions configures boosting.
type GBDTOptions struct {
	Rounds    int     // default 50
	LearnRate float64 // default 0.1
	Tree      TreeOptions
}

func (o GBDTOptions) withDefaults() GBDTOptions {
	if o.Rounds == 0 {
		o.Rounds = 50
	}
	if o.LearnRate == 0 {
		o.LearnRate = 0.1
	}
	return o
}

// FitGBDT trains a boosted ensemble on (xs, ys).
func FitGBDT(xs [][]float64, ys []float64, opts GBDTOptions) *GBDT {
	opts = opts.withDefaults()
	g := &GBDT{LearnRate: opts.LearnRate}
	if len(ys) == 0 {
		return g
	}
	for _, y := range ys {
		g.Base += y
	}
	g.Base /= float64(len(ys))
	resid := make([]float64, len(ys))
	pred := make([]float64, len(ys))
	for i := range pred {
		pred[i] = g.Base
	}
	for r := 0; r < opts.Rounds; r++ {
		for i := range resid {
			resid[i] = ys[i] - pred[i]
		}
		t := BuildTree(xs, resid, opts.Tree)
		g.Trees = append(g.Trees, t)
		improved := false
		for i := range pred {
			d := g.LearnRate * t.Predict(xs[i])
			pred[i] += d
			if math.Abs(d) > 1e-12 {
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return g
}

// Predict evaluates the ensemble on x.
func (g *GBDT) Predict(x []float64) float64 {
	out := g.Base
	for _, t := range g.Trees {
		out += g.LearnRate * t.Predict(x)
	}
	return out
}
