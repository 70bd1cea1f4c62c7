package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRidgeRecoversLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		xs = append(xs, x)
		ys = append(ys, 2*x[0]-3*x[1]+0.5*x[2]+7)
	}
	m, err := FitRidge(xs, ys, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -3, 0.5}
	for i, w := range want {
		if math.Abs(m.W[i]-w) > 1e-3 {
			t.Fatalf("W[%d] = %v, want %v", i, m.W[i], w)
		}
	}
	if math.Abs(m.Bias-7) > 1e-3 {
		t.Fatalf("Bias = %v", m.Bias)
	}
}

func TestRidgeErrorsOnEmpty(t *testing.T) {
	if _, err := FitRidge(nil, nil, 1); err == nil {
		t.Fatal("expected error on empty data")
	}
}

// mustNet builds a net or fails the test — test architectures are static.
func mustNet(t *testing.T, sizes []int, act Activation, rng *rand.Rand) *Net {
	t.Helper()
	net, err := NewNet(sizes, act, rng)
	if err != nil {
		t.Fatalf("NewNet(%v): %v", sizes, err)
	}
	return net
}

func TestNetLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := mustNet(t, []int{2, 8, 1}, Tanh, rng)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	// Replicate for batching.
	var X [][]float64
	var Y []float64
	for i := 0; i < 50; i++ {
		X = append(X, xs...)
		Y = append(Y, ys...)
	}
	loss := TrainRegression(net, X, Y, 200, 8, 0.01, rng)
	if loss > 0.05 {
		t.Fatalf("XOR final loss = %v", loss)
	}
	for i, x := range xs {
		pred := net.Forward(x)[0]
		if math.Abs(pred-ys[i]) > 0.3 {
			t.Fatalf("XOR(%v) = %v, want %v", x, pred, ys[i])
		}
	}
}

func TestBackwardGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := mustNet(t, []int{3, 5, 1}, ReLU, rng)
	x := []float64{0.3, -0.2, 0.8}
	// Analytic gradient of the first layer's first weight.
	net.ZeroGrad()
	c := net.ForwardCache(x)
	net.Backward(c, []float64{1})
	analytic := net.Layers[0].dW[0]
	// Numeric gradient.
	const eps = 1e-6
	orig := net.Layers[0].W[0]
	net.Layers[0].W[0] = orig + eps
	up := net.Forward(x)[0]
	net.Layers[0].W[0] = orig - eps
	down := net.Forward(x)[0]
	net.Layers[0].W[0] = orig
	numeric := (up - down) / (2 * eps)
	if math.Abs(analytic-numeric) > 1e-4 {
		t.Fatalf("gradient mismatch: analytic %v vs numeric %v", analytic, numeric)
	}
}

func TestAdamReducesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := mustNet(t, []int{1, 8, 1}, ReLU, rng)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 100; i++ {
		v := rng.Float64()*4 - 2
		xs = append(xs, []float64{v})
		ys = append(ys, v*v)
	}
	first := TrainRegression(net, xs, ys, 1, 16, 1e-3, rng)
	last := TrainRegression(net, xs, ys, 100, 16, 1e-3, rng)
	if last >= first {
		t.Fatalf("loss did not decrease: %v → %v", first, last)
	}
}

func TestTreePredictsPiecewiseConstant(t *testing.T) {
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		v := float64(i) / 200
		xs = append(xs, []float64{v})
		if v < 0.5 {
			ys = append(ys, 1)
		} else {
			ys = append(ys, 5)
		}
	}
	tree := BuildTree(xs, ys, TreeOptions{MaxDepth: 3})
	if p := tree.Predict([]float64{0.2}); math.Abs(p-1) > 0.1 {
		t.Fatalf("left side = %v", p)
	}
	if p := tree.Predict([]float64{0.9}); math.Abs(p-5) > 0.1 {
		t.Fatalf("right side = %v", p)
	}
	if tree.IsLeaf() {
		t.Fatal("tree did not split")
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	xs := [][]float64{{1}, {2}, {3}}
	ys := []float64{1, 2, 3}
	tree := BuildTree(xs, ys, TreeOptions{MaxDepth: 10, MinLeafSize: 2})
	// 3 points with min leaf 2: at most one split.
	if !tree.IsLeaf() && !(tree.Left.IsLeaf() && tree.Right.IsLeaf()) {
		t.Fatal("split below the root's children")
	}
}

func TestGBDTFitsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 300; i++ {
		a, b := rng.Float64(), rng.Float64()
		xs = append(xs, []float64{a, b})
		ys = append(ys, math.Sin(3*a)+b*b)
	}
	g := FitGBDT(xs, ys, GBDTOptions{Rounds: 80, LearnRate: 0.2})
	sse := 0.0
	for i, x := range xs {
		d := g.Predict(x) - ys[i]
		sse += d * d
	}
	mse := sse / float64(len(xs))
	if mse > 0.01 {
		t.Fatalf("GBDT train MSE = %v", mse)
	}
}

func TestGBDTEmptyData(t *testing.T) {
	g := FitGBDT(nil, nil, GBDTOptions{})
	if g.Predict([]float64{1}) != 0 {
		t.Fatal("empty GBDT should predict base 0")
	}
}

func TestKMeansSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	for i := 0; i < 100; i++ {
		xs = append(xs, []float64{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
	}
	for i := 0; i < 100; i++ {
		xs = append(xs, []float64{5 + rng.NormFloat64()*0.1, 5 + rng.NormFloat64()*0.1})
	}
	res := KMeans(xs, 2, 20, rng)
	if len(res.Centroids) != 2 {
		t.Fatalf("centroids = %d", len(res.Centroids))
	}
	// All points in each half share an assignment.
	for i := 1; i < 100; i++ {
		if res.Assign[i] != res.Assign[0] {
			t.Fatal("cluster 1 split")
		}
	}
	for i := 101; i < 200; i++ {
		if res.Assign[i] != res.Assign[100] {
			t.Fatal("cluster 2 split")
		}
	}
	if res.Assign[0] == res.Assign[100] {
		t.Fatal("clusters merged")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if res := KMeans(nil, 3, 5, rng); len(res.Centroids) != 0 {
		t.Fatal("empty input should return empty result")
	}
	xs := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	res := KMeans(xs, 5, 5, rng)
	if len(res.Centroids) == 0 || len(res.Assign) != 3 {
		t.Fatalf("identical points: %+v", res)
	}
}

func TestSoftmax(t *testing.T) {
	p := Softmax([]float64{1, 2, 3}, nil)
	sum := 0.0
	for _, v := range p {
		sum += v
		if v <= 0 || v >= 1 {
			t.Fatalf("softmax value out of range: %v", p)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("softmax sum = %v", sum)
	}
	if !(p[2] > p[1] && p[1] > p[0]) {
		t.Fatalf("softmax not monotone: %v", p)
	}
	// Stability with large logits.
	p2 := Softmax([]float64{1000, 1001}, nil)
	if math.IsNaN(p2[0]) || math.IsNaN(p2[1]) {
		t.Fatal("softmax overflow")
	}
}

func TestSoftmaxProperty(t *testing.T) {
	err := quick.Check(func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			logits[i] = float64(v) / 16
		}
		p := Softmax(logits, nil)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-6
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetDeterminism(t *testing.T) {
	mk := func() float64 {
		rng := rand.New(rand.NewSource(99))
		net := mustNet(t, []int{2, 4, 1}, ReLU, rng)
		xs := [][]float64{{0.1, 0.9}, {0.4, 0.2}}
		ys := []float64{1, 2}
		TrainRegression(net, xs, ys, 10, 2, 1e-2, rng)
		return net.Forward([]float64{0.5, 0.5})[0]
	}
	if mk() != mk() {
		t.Fatal("training not deterministic under fixed seed")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	sizes := []int{3, 4, 2}
	net := mustNet(t, sizes, ReLU, rng)
	if len(net.Layers) != len(sizes)-1 {
		t.Fatalf("%d layers, want %d", len(net.Layers), len(sizes)-1)
	}
	for i, l := range net.Layers {
		if l.In != sizes[i] || l.Out != sizes[i+1] || len(l.W) != l.In*l.Out || len(l.B) != l.Out {
			t.Fatalf("layer %d: %d→%d with %d weights and %d biases, want %d→%d", i, l.In, l.Out, len(l.W), len(l.B), sizes[i], sizes[i+1])
		}
	}
}
