package costmodel

import (
	"math"
	"testing"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// TestTreeConvGradientCheck verifies the recursive backpropagation through
// the plan tree against numeric differentiation — the correctness core of
// the TreeConv architecture.
func TestTreeConvGradientCheck(t *testing.T) {
	// Tanh instead of the model's ReLU keeps the loss smooth for the
	// finite differences; the widths are the model's own.
	m := NewTreeConv()
	rng := newRNG(7)
	combine, err := ml.NewNet([]int{NodeFeatureDim + 2*embDim, 6, embDim}, ml.Tanh, rng)
	if err != nil {
		t.Fatal(err)
	}
	m.enc = treeEncoder{combine}
	if m.head, err = ml.NewNet([]int{embDim, 4, 1}, ml.Tanh, rng); err != nil {
		t.Fatal(err)
	}

	j := query.Join{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"}
	left := plan.NewScan(plan.SeqScan, "a", "a", nil)
	left.EstCard = 100
	right := plan.NewScan(plan.IndexScan, "b", "b", []query.Pred{{Alias: "b", Column: "v", Op: query.Eq, Val: data.IntVal(1)}})
	right.EstCard = 10
	root := plan.NewJoin(plan.HashJoin, left, right, []query.Join{j})
	root.EstCard = 50

	loss := func() float64 {
		emb, _ := m.enc.forward(root)
		out := m.head.Forward(emb)[0]
		d := out - 3.0
		return d * d
	}

	// Analytic gradients (a new net's accumulated gradients are zero).
	m.trainOne(root, 3.0)

	check := func(name string, w, dw []float64) {
		t.Helper()
		const eps = 1e-6
		for _, i := range []int{0, len(w) / 2, len(w) - 1} {
			orig := w[i]
			w[i] = orig + eps
			up := loss()
			w[i] = orig - eps
			down := loss()
			w[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-dw[i]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, dw[i], numeric)
			}
		}
	}
	check("combine.W0", m.enc.combine.Layers[0].W, gradW(m.enc.combine, 0))
	check("combine.W1", m.enc.combine.Layers[1].W, gradW(m.enc.combine, 1))
	check("head.W0", m.head.Layers[0].W, gradW(m.head, 0))
}

// gradW exposes a layer's accumulated weight gradient for checking.
func gradW(n *ml.Net, layer int) []float64 {
	return n.Layers[layer].GradW()
}
