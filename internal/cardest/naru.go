package cardest

import (
	"math/rand"
	"sort"

	"lqo/internal/data"
	"lqo/internal/ml"
	"lqo/internal/query"
	"lqo/internal/stats"
)

// Naru is the deep auto-regressive estimator line [71, 70]: the joint
// distribution of each table is factorized column-by-column,
// P(x) = Π_i P(x_i | x_<i), with each conditional modeled by a small
// neural network over binned domains, and range queries answered by
// progressive sampling.
//
// Simplification vs. NeuroCard [70]: multi-table queries compose per-table
// selectivities with the System-R join formula rather than sampling a full
// outer join (the workbench's FactorJoin estimator provides the
// learned-join alternative).
//
// Estimate draws progressive samples from an internal RNG and is therefore
// not safe for concurrent use; results are deterministic for a fixed call
// sequence after Train.
type Naru struct {
	cat    *data.Catalog
	cs     *stats.CatalogStats
	tables map[string]*naruTable
	rng    *rand.Rand
}

// Naru's model shape, training schedule and inference budget.
const (
	naruBins       = 32   // per-column bins
	naruHidden     = 32   // conditional-net hidden width
	naruEpochs     = 3    // training passes over the row sample
	naruTrainRows  = 2000 // rows sampled per table for training
	naruInfSamples = 64   // progressive-sampling paths
)

type naruTable struct {
	binnedCols
	nets []*ml.Net // nets[i] predicts logits of col i given cols <i
}

// NewNaru returns an untrained auto-regressive estimator.
func NewNaru() *Naru { return &Naru{} }

// Name implements Estimator.
func (e *Naru) Name() string { return "naru" }

// Train fits one auto-regressive model per table by maximum likelihood
// (cross-entropy) over a row sample.
func (e *Naru) Train(ctx *Context) error {
	e.cat = ctx.Cat
	e.cs = ctx.Stats
	e.tables = make(map[string]*naruTable)
	e.rng = rand.New(rand.NewSource(ctx.Seed + 404))
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		if t.NumRows() == 0 {
			continue
		}
		nt, err := e.trainTable(t)
		if err != nil {
			return err
		}
		e.tables[tn] = nt
	}
	return nil
}

func (e *Naru) trainTable(t *data.Table) (*naruTable, error) {
	nt := &naruTable{binnedCols: newBinnedCols(t, naruBins)}
	nc := len(t.Cols)
	nets := make([]*ml.Net, nc)
	for i := 0; i < nc; i++ {
		in := i * naruBins
		if in == 0 {
			in = 1 // constant input for the first column's marginal
		}
		net, err := ml.NewNet([]int{in, naruHidden, naruBins}, ml.ReLU, e.rng)
		if err != nil {
			return nil, err
		}
		nets[i] = net
	}
	nt.nets = nets

	// Sample training rows.
	n := t.NumRows()
	rows := make([]int, 0, naruTrainRows)
	if n <= naruTrainRows {
		for i := 0; i < n; i++ {
			rows = append(rows, i)
		}
	} else {
		for i := 0; i < naruTrainRows; i++ {
			rows = append(rows, e.rng.Intn(n))
		}
	}
	opt := ml.NewAdam(2e-3, nets...)
	probs := make([]float64, naruBins)
	ml.Minibatches(e.rng, len(rows), naruEpochs, 16, func(i int) {
		r := rows[i]
		// Bin the row once.
		rowBins := make([]int, nc)
		for ci, c := range t.Cols {
			rowBins[ci] = binOf(nt.bounds[ci], c.Float(r))
		}
		// One CE step per conditional.
		for ci := 0; ci < nc; ci++ {
			x := nt.condInput(rowBins[:ci])
			cche := nets[ci].ForwardCache(x)
			ml.Softmax(cche.Output(), probs)
			grad := make([]float64, naruBins)
			copy(grad, probs)
			grad[rowBins[ci]] -= 1
			nets[ci].Backward(cche, grad)
		}
	}, opt.Step)
	return nt, nil
}

// condInput builds the concatenated one-hot input of the previous columns'
// bins.
func (nt *naruTable) condInput(prev []int) []float64 {
	if len(prev) == 0 {
		return []float64{1}
	}
	x := make([]float64, len(prev)*nt.bins)
	for i, b := range prev {
		x[i*nt.bins+b] = 1
	}
	return x
}

// quantileBounds returns bins upper bounds at value quantiles so bins are
// roughly equi-depth.
func quantileBounds(c *data.Column, bins int) []float64 {
	n := c.Len()
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = c.Float(i)
	}
	sort.Float64s(vals)
	out := make([]float64, bins)
	for b := 0; b < bins; b++ {
		idx := (b + 1) * n / bins
		if idx >= n {
			idx = n - 1
		}
		out[b] = vals[idx]
	}
	out[bins-1] = vals[n-1]
	return out
}

// binOf returns the bin index of v (first bound >= v).
func binOf(bounds []float64, v float64) int {
	lo, hi := 0, len(bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if bounds[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// tableSel runs progressive sampling over the AR model of table tn,
// restricting each column's bin distribution to the range of the preds
// on alias.
func (e *Naru) tableSel(tn string, preds []query.Pred, alias string) float64 {
	nt := e.tables[tn]
	if nt == nil {
		return tableSelFromPreds(e.cs.Tables[tn], preds, alias)
	}
	if !hasPreds(preds, alias) {
		return 1
	}
	allowed := nt.allowedBins(e.cs.Tables[tn], preds, alias)

	probs := make([]float64, nt.bins)
	total := 0.0
	for s := 0; s < naruInfSamples; s++ {
		p := 1.0
		prev := make([]int, 0, len(nt.cols))
		for ci := range nt.cols {
			logits := nt.nets[ci].Forward(nt.condInput(prev))
			ml.Softmax(logits, probs)
			mask := allowed[ci]
			if mask == nil {
				prev = append(prev, sampleBin(probs, e.rng))
				continue
			}
			mass := 0.0
			for b, ok := range mask {
				if ok {
					mass += probs[b]
				}
			}
			p *= mass
			if mass <= 0 {
				p = 0
				break
			}
			// Sample within the allowed mass.
			r := e.rng.Float64() * mass
			pick := 0
			for b, ok := range mask {
				if !ok {
					continue
				}
				r -= probs[b]
				pick = b
				if r <= 0 {
					break
				}
			}
			prev = append(prev, pick)
		}
		total += p
	}
	return total / naruInfSamples
}

func sampleBin(probs []float64, rng *rand.Rand) int {
	r := rng.Float64()
	for b, p := range probs {
		r -= p
		if r <= 0 {
			return b
		}
	}
	return len(probs) - 1
}

// Estimate implements Estimator.
func (e *Naru) Estimate(q *query.Query) float64 {
	return clampCard(joinFormula(e.cs, q, e.tableSel), e.cat, q)
}
