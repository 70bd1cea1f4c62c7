package cardest

import (
	"math"
	"sort"

	"lqo/internal/data"
	"lqo/internal/query"
)

// Iris [35] keeps compact summaries of column *sets* rather than single
// columns: for each table it materializes 2-D joint histograms over the
// most correlated column pairs and answers multi-predicate selectivities
// by covering the predicate columns with pairs (joint estimates) plus
// per-column histograms for the remainder. Joins use the System-R formula.
type Iris struct {
	formula // Estimate and EstimateGraph over tableSel
	tables  map[string]*irisTable
}

type irisTable struct {
	pairs []irisPair
}

type irisPair struct {
	colA, colB string
	loA, wA    float64
	loB, wB    float64
	bins       int
	grid       []float64 // probability mass, bins x bins
}

// NewIris returns an untrained Iris estimator.
func NewIris() *Iris { return &Iris{} }

// Iris's summary budget.
const (
	irisPairBins = 24 // grid resolution per 2-D summary
	irisMaxPairs = 4  // summaries kept per table
)

// Name implements Estimator.
func (e *Iris) Name() string { return "iris" }

// Train selects the most correlated column pairs per table and builds
// their joint histograms.
func (e *Iris) Train(ctx *Context) error {
	e.formula = formula{cat: ctx.Cat, cs: ctx.Stats, sel: e.tableSel}
	e.tables = make(map[string]*irisTable)
	for _, tn := range ctx.Cat.TableNames() {
		t := ctx.Cat.Table(tn)
		n := t.NumRows()
		if n == 0 || len(t.Cols) < 2 {
			continue
		}
		// Sample rows once.
		step := 1
		if n > 4000 {
			step = n / 4000
		}
		var rows [][]float64
		for r := 0; r < n; r += step {
			row := make([]float64, len(t.Cols))
			for ci, c := range t.Cols {
				row[ci] = c.Float(r)
			}
			rows = append(rows, row)
		}
		type scored struct {
			a, b int
			corr float64
		}
		var cand []scored
		for a := 0; a < len(t.Cols); a++ {
			for b := a + 1; b < len(t.Cols); b++ {
				cand = append(cand, scored{a, b, math.Abs(pearson(rows, a, b))})
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].corr > cand[j].corr })
		it := &irisTable{}
		for i := 0; i < len(cand) && i < irisMaxPairs; i++ {
			if cand[i].corr < 0.1 {
				break
			}
			it.pairs = append(it.pairs, e.buildPair(t, rows, cand[i].a, cand[i].b))
		}
		e.tables[tn] = it
	}
	return nil
}

func (e *Iris) buildPair(t *data.Table, rows [][]float64, a, b int) irisPair {
	p := irisPair{colA: t.Cols[a].Name, colB: t.Cols[b].Name, bins: irisPairBins}
	loA, hiA := math.Inf(1), math.Inf(-1)
	loB, hiB := math.Inf(1), math.Inf(-1)
	for _, r := range rows {
		loA, hiA = minf(loA, r[a]), maxf(hiA, r[a])
		loB, hiB = minf(loB, r[b]), maxf(hiB, r[b])
	}
	p.loA, p.loB = loA, loB
	p.wA = maxf(hiA-loA, 1e-9) / float64(p.bins)
	p.wB = maxf(hiB-loB, 1e-9) / float64(p.bins)
	p.grid = make([]float64, p.bins*p.bins)
	for _, r := range rows {
		ba := gridBin(r[a], p.loA, p.wA, p.bins)
		bb := gridBin(r[b], p.loB, p.wB, p.bins)
		p.grid[ba*p.bins+bb]++
	}
	inv := 1 / float64(len(rows))
	for i := range p.grid {
		p.grid[i] *= inv
	}
	return p
}

func gridBin(v, lo, w float64, bins int) int {
	b := int((v - lo) / w)
	if b < 0 {
		b = 0
	}
	if b >= bins {
		b = bins - 1
	}
	return b
}

// rangeMass integrates the 2-D grid over [loA,hiA] x [loB,hiB] with
// partial-bin interpolation.
func (p *irisPair) rangeMass(loA, hiA, loB, hiB float64) float64 {
	mass := 0.0
	for a := 0; a < p.bins; a++ {
		aLo := p.loA + float64(a)*p.wA
		aHi := aLo + p.wA
		fa := overlapFrac(aLo, aHi, loA, hiA)
		if fa == 0 {
			continue
		}
		for b := 0; b < p.bins; b++ {
			bLo := p.loB + float64(b)*p.wB
			bHi := bLo + p.wB
			fb := overlapFrac(bLo, bHi, loB, hiB)
			if fb == 0 {
				continue
			}
			mass += p.grid[a*p.bins+b] * fa * fb
		}
	}
	return mass
}

func overlapFrac(lo, hi, qlo, qhi float64) float64 {
	if hi <= lo {
		if lo >= qlo && lo <= qhi {
			return 1
		}
		return 0
	}
	o := minf(hi, qhi) - maxf(lo, qlo)
	if o <= 0 {
		return 0
	}
	f := o / (hi - lo)
	if f > 1 {
		return 1
	}
	return f
}

// tableSel covers predicate columns greedily with 2-D summaries, falling
// back to per-column histograms for leftovers.
func (e *Iris) tableSel(tn string, preds []query.Pred, alias string) float64 {
	ts := e.cs.Tables[tn]
	if !hasPreds(preds, alias) {
		return 1
	}
	it := e.tables[tn]
	if it == nil || ts == nil {
		return tableSelFromPreds(ts, preds, alias)
	}
	// Column → combined range.
	type rng struct{ lo, hi float64 }
	ranges := map[string]rng{}
	for _, p := range preds {
		csCol := ts.Cols[p.Column]
		if p.Alias != alias || csCol == nil {
			continue
		}
		lo, hi := p.Bounds(csCol.Min, csCol.Max)
		if r, ok := ranges[p.Column]; ok {
			lo, hi = maxf(lo, r.lo), minf(hi, r.hi)
		}
		ranges[p.Column] = rng{lo, hi}
	}
	covered := map[string]bool{}
	sel := 1.0
	for _, pair := range it.pairs {
		ra, okA := ranges[pair.colA]
		rb, okB := ranges[pair.colB]
		if !okA || !okB || covered[pair.colA] || covered[pair.colB] {
			continue
		}
		sel *= pair.rangeMass(ra.lo, ra.hi, rb.lo, rb.hi)
		covered[pair.colA], covered[pair.colB] = true, true
	}
	for _, p := range preds {
		if p.Alias != alias || covered[p.Column] {
			continue
		}
		covered[p.Column] = true
		r := ranges[p.Column]
		csCol := ts.Cols[p.Column]
		if csCol == nil {
			sel /= 3
			continue
		}
		sel *= csCol.Hist.SelectivityRange(r.lo, r.hi)
	}
	return sel
}
