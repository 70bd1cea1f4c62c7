// Package ml is the workbench's from-scratch machine-learning substrate:
// dense neural networks with backpropagation and Adam, gradient-boosted
// regression trees, ridge regression, k-means, and softmax utilities. It
// substitutes for the PyTorch/XGBoost stacks of the surveyed papers at
// laptop scale, using only the standard library.
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer nonlinearity.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	ReLU
	Sigmoid
	Tanh
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	case Sigmoid:
		return 1 / (1 + math.Exp(-x))
	case Tanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivFromOut computes the activation derivative from the activated
// output (all supported activations permit this).
func (a Activation) derivFromOut(y float64) float64 {
	switch a {
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Sigmoid:
		return y * (1 - y)
	case Tanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Layer is a dense layer out = act(W·x + b) with accumulated gradients and
// Adam moment buffers.
type Layer struct {
	In, Out int
	W       []float64 // Out x In, row-major
	B       []float64
	Act     Activation

	dW, dB []float64
	mW, vW []float64
	mB, vB []float64
}

// NewLayer creates a layer with He-style initialization from rng.
func NewLayer(in, out int, act Activation, rng *rand.Rand) *Layer {
	l := &Layer{
		In: in, Out: out, Act: act,
		W: make([]float64, in*out), B: make([]float64, out),
		dW: make([]float64, in*out), dB: make([]float64, out),
		mW: make([]float64, in*out), vW: make([]float64, in*out),
		mB: make([]float64, out), vB: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range l.W {
		l.W[i] = rng.NormFloat64() * scale
	}
	return l
}

func (l *Layer) forward(x []float64) []float64 {
	out := make([]float64, l.Out)
	for o := 0; o < l.Out; o++ {
		s := l.B[o]
		row := l.W[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = l.Act.apply(s)
	}
	return out
}

// backward accumulates parameter gradients given the layer input, output
// and upstream gradient, returning the gradient w.r.t. the input.
func (l *Layer) backward(x, y, gradOut []float64) []float64 {
	gradIn := make([]float64, l.In)
	for o := 0; o < l.Out; o++ {
		g := gradOut[o] * l.Act.derivFromOut(y[o])
		l.dB[o] += g
		row := l.W[o*l.In : (o+1)*l.In]
		dRow := l.dW[o*l.In : (o+1)*l.In]
		for i, xi := range x {
			dRow[i] += g * xi
			gradIn[i] += g * row[i]
		}
	}
	return gradIn
}

// GradW returns the layer's accumulated weight gradient (same layout as
// W). Exposed for gradient checking; the returned slice aliases internal
// state.
func (l *Layer) GradW() []float64 { return l.dW }

// Net is a feed-forward stack of dense layers.
type Net struct {
	Layers []*Layer
}

// NewNet builds a net with the given layer sizes, hidden activation and an
// identity output layer. sizes must list at least input and output widths,
// all positive; a bad architecture is reported as an error (it used to
// panic) so a learned component constructed from derived dimensions — a
// featurizer returning zero width on a degenerate schema, say — fails its
// Train call instead of crashing the host.
func NewNet(sizes []int, hidden Activation, rng *rand.Rand) (*Net, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("ml: NewNet needs >=2 sizes, got %d", len(sizes))
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("ml: NewNet layer %d has non-positive width %d", i, s)
		}
	}
	n := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hidden
		if i+2 == len(sizes) {
			act = Identity
		}
		n.Layers = append(n.Layers, NewLayer(sizes[i], sizes[i+1], act, rng))
	}
	return n, nil
}

// Forward runs the net, returning the final output.
func (n *Net) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.forward(x)
	}
	return x
}

// Cache holds per-layer activations for backprop: Cache[0] is the input,
// Cache[i] the output of layer i-1.
type Cache [][]float64

// ForwardCache runs the net keeping all activations.
func (n *Net) ForwardCache(x []float64) Cache {
	c := make(Cache, 0, len(n.Layers)+1)
	c = append(c, x)
	for _, l := range n.Layers {
		x = l.forward(x)
		c = append(c, x)
	}
	return c
}

// Output returns the final activation of a cache.
func (c Cache) Output() []float64 { return c[len(c)-1] }

// Backward accumulates gradients for all layers from the upstream gradient
// on the net output, returning the gradient w.r.t. the net input.
func (n *Net) Backward(c Cache, gradOut []float64) []float64 {
	g := gradOut
	for i := len(n.Layers) - 1; i >= 0; i-- {
		g = n.Layers[i].backward(c[i], c[i+1], g)
	}
	return g
}

// ZeroGrad clears accumulated gradients.
func (n *Net) ZeroGrad() {
	for _, l := range n.Layers {
		for i := range l.dW {
			l.dW[i] = 0
		}
		for i := range l.dB {
			l.dB[i] = 0
		}
	}
}

// Adam is the Adam optimizer state for one or more nets sharing a step
// counter.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // max abs gradient per parameter; 0 disables
	t       int
	targets []*Net
}

// NewAdam returns an Adam optimizer over the given nets with standard
// hyperparameters.
func NewAdam(lr float64, nets ...*Net) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, targets: nets}
}

// Step applies one Adam update using accumulated gradients scaled by
// 1/batchSize, then clears the gradients.
func (a *Adam) Step(batchSize int) {
	if batchSize < 1 {
		batchSize = 1
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	inv := 1 / float64(batchSize)
	upd := func(w, dw, m, v []float64) {
		for i := range w {
			g := dw[i] * inv
			if a.Clip > 0 {
				if g > a.Clip {
					g = a.Clip
				} else if g < -a.Clip {
					g = -a.Clip
				}
			}
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			w[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
			dw[i] = 0
		}
	}
	for _, n := range a.targets {
		for _, l := range n.Layers {
			upd(l.W, l.dW, l.mW, l.vW)
			upd(l.B, l.dB, l.mB, l.vB)
		}
	}
}

// TrainRegression fits net to (xs, ys) scalar targets with MSE loss and
// mini-batch Adam, returning the final epoch's mean loss.
func TrainRegression(net *Net, xs [][]float64, ys []float64, epochs, batch int, lr float64, rng *rand.Rand) float64 {
	if len(xs) == 0 {
		return 0
	}
	opt := NewAdam(lr, net)
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	var lastLoss float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		total := 0.0
		for s := 0; s < len(idx); s += batch {
			end := s + batch
			if end > len(idx) {
				end = len(idx)
			}
			net.ZeroGrad()
			for _, i := range idx[s:end] {
				c := net.ForwardCache(xs[i])
				pred := c.Output()[0]
				diff := pred - ys[i]
				total += diff * diff
				net.Backward(c, []float64{2 * diff})
			}
			opt.Step(end - s)
		}
		lastLoss = total / float64(len(idx))
	}
	return lastLoss
}
