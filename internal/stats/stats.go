// Package stats implements the traditional per-column statistics a
// classical optimizer keeps — equi-depth histograms, most-common-value
// lists, distinct counts, and reservoir samples — and the per-table
// container the traditional cardinality estimator consumes.
package stats

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"lqo/internal/data"
)

// Histogram is an equi-depth (equal-frequency) histogram over the numeric
// domain of a column.
type Histogram struct {
	Bounds []float64 // len = buckets+1, ascending; Bounds[0] = min, last = max
	Counts []float64 // rows per bucket
	Total  float64
	// NDVs[i] approximates distinct values within bucket i.
	NDVs []float64
}

// BuildHistogramFromValues constructs an equi-depth histogram with at most
// buckets buckets over a raw value slice, which it sorts in place. It is
// shared by the SPN estimator's leaves.
func BuildHistogramFromValues(vals []float64, buckets int) *Histogram {
	slices.Sort(vals)
	return histogramOfSorted(vals, buckets)
}

// histogramOfSorted is BuildHistogramFromValues over an ascending slice.
func histogramOfSorted(vals []float64, buckets int) *Histogram {
	n := len(vals)
	if n == 0 {
		return &Histogram{Total: 0}
	}
	buckets = min(max(buckets, 1), n)
	per, rem := n/buckets, n%buckets
	// endOf returns where bucket b, starting at start, ends: its share of
	// the rows (per >= 1, as buckets <= n), extended so equal values never
	// straddle a boundary.
	endOf := func(b, start int) int {
		end := start + per
		if b < rem {
			end++
		}
		end = min(end, n)
		for end < n && vals[end] == vals[end-1] {
			end++
		}
		return end
	}
	// Count the buckets first, so each slice is allocated once, at its size.
	k := 0
	for start := 0; k < buckets && start < n; k++ {
		start = endOf(k, start)
	}
	h := &Histogram{Total: float64(n), Bounds: append(make([]float64, 0, k+1), vals[0])}
	h.Counts, h.NDVs = make([]float64, k), make([]float64, k)
	for b, start := 0, 0; b < k; b++ {
		end := endOf(b, start)
		h.Bounds = append(h.Bounds, vals[end-1])
		h.Counts[b] = float64(end - start)
		h.NDVs[b] = float64(runs(vals[start:end]))
		start = end
	}
	return h
}

// Buckets returns the number of buckets.
func (h *Histogram) Buckets() int { return len(h.Counts) }

// Min returns the histogram's lower domain bound.
func (h *Histogram) Min() float64 {
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[0]
}

// Max returns the histogram's upper domain bound.
func (h *Histogram) Max() float64 {
	if len(h.Bounds) == 0 {
		return 0
	}
	return h.Bounds[len(h.Bounds)-1]
}

// SelectivityRange estimates the fraction of rows with value in [lo, hi]
// (closed interval), assuming uniformity within buckets.
func (h *Histogram) SelectivityRange(lo, hi float64) float64 {
	if h.Total == 0 || len(h.Counts) == 0 || hi < lo {
		return 0
	}
	rows := 0.0
	for b := 0; b < len(h.Counts); b++ {
		blo, bhi := h.Bounds[b], h.Bounds[b+1]
		if bhi < lo || blo > hi {
			continue
		}
		if blo >= lo && bhi <= hi {
			rows += h.Counts[b]
			continue
		}
		// Partial overlap: linear interpolation.
		width := bhi - blo
		if width <= 0 {
			if blo >= lo && blo <= hi {
				rows += h.Counts[b]
			}
			continue
		}
		olo := math.Max(blo, lo)
		ohi := math.Min(bhi, hi)
		frac := (ohi - olo) / width
		if frac < 0 {
			frac = 0
		}
		rows += h.Counts[b] * frac
	}
	sel := rows / h.Total
	if sel > 1 {
		sel = 1
	}
	return sel
}

// SelectivityEq estimates the fraction of rows equal to v using the
// containing bucket's count divided by its distinct-value estimate.
func (h *Histogram) SelectivityEq(v float64) float64 {
	if h.Total == 0 || len(h.Counts) == 0 {
		return 0
	}
	if v < h.Min() || v > h.Max() {
		return 0
	}
	for b := 0; b < len(h.Counts); b++ {
		if v <= h.Bounds[b+1] || b == len(h.Counts)-1 {
			ndv := h.NDVs[b]
			if ndv < 1 {
				ndv = 1
			}
			return h.Counts[b] / ndv / h.Total
		}
	}
	return 0
}

// MCV holds the most common values of a column with their frequencies.
type MCV struct {
	Values []float64
	Freqs  []float64 // fraction of rows
}

// mcvOfSorted returns the k most frequent values of an ascending slice,
// count descending, then value ascending. The runs of equal values arrive
// in ascending order, so a run displaces only runs with smaller counts.
func mcvOfSorted(vals []float64, k int) *MCV {
	type run struct {
		v float64
		c int
	}
	top := make([]run, 0, k)
	for i := 0; i < len(vals); {
		j := i + 1
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		r := run{vals[i], j - i}
		i = j
		p := len(top)
		for p > 0 && top[p-1].c < r.c {
			p--
		}
		if p == k {
			continue
		}
		if len(top) < k {
			top = append(top, run{})
		}
		copy(top[p+1:], top[p:])
		top[p] = r
	}
	m := &MCV{}
	if len(top) > 0 {
		m.Values, m.Freqs = make([]float64, 0, len(top)), make([]float64, 0, len(top))
	}
	for _, r := range top {
		m.Values = append(m.Values, r.v)
		m.Freqs = append(m.Freqs, float64(r.c)/float64(len(vals)))
	}
	return m
}

// Freq returns the MCV frequency of v and whether v is an MCV.
func (m *MCV) Freq(v float64) (float64, bool) {
	for i, mv := range m.Values {
		if mv == v {
			return m.Freqs[i], true
		}
	}
	return 0, false
}

// ColumnStats bundles the statistics kept per column.
type ColumnStats struct {
	Hist     *Histogram
	MCVs     *MCV
	Distinct float64
	Min, Max float64
	Rows     float64
}

// TableStats holds per-column statistics and a row sample for one table.
type TableStats struct {
	Table  string
	Rows   float64
	Cols   map[string]*ColumnStats
	Sample []int32 // sampled row ids
}

// Options configures statistics collection.
type Options struct {
	Seed int64 // seeds the row sample
}

// The sizes of what Collect keeps per column and per table.
const (
	histogramBuckets = 32   // at most, per column histogram
	mcvSize          = 10   // most common values per column
	sampleSize       = 1000 // sampled row ids per table
)

// Collect gathers statistics for every column of t. Each column is copied
// and sorted once; its histogram, MCV list and distinct count are linear
// passes over that sorted copy, whose buffer the columns share.
func Collect(t *data.Table, opts Options) *TableStats {
	ts := &TableStats{Table: t.Name, Rows: float64(t.NumRows()), Cols: make(map[string]*ColumnStats)}
	var vals []float64
	var ints []int64
	for _, c := range t.Cols {
		n := c.Len()
		vals = slices.Grow(vals[:0], n)[:n]
		var distinct int
		if c.Kind == data.Float {
			copy(vals, c.Flts)
			slices.Sort(vals)
			distinct = runs(vals)
		} else {
			// Distinct values are counted on the exact int64s: the float
			// images of integers beyond 2^53 can collide.
			ints = append(ints[:0], c.Ints...)
			slices.Sort(ints)
			distinct = runs(ints)
			for i, v := range ints {
				vals[i] = float64(v) // monotone, so vals is ascending too
			}
		}
		cs := &ColumnStats{
			Hist:     histogramOfSorted(vals, histogramBuckets),
			MCVs:     mcvOfSorted(vals, mcvSize),
			Distinct: float64(distinct),
			Rows:     float64(t.NumRows()),
		}
		if lo, hi, ok := c.MinMax(); ok {
			cs.Min, cs.Max = lo, hi
		}
		ts.Cols[c.Name] = cs
	}
	ts.Sample = reservoirSample(t.NumRows(), sampleSize, opts.Seed)
	return ts
}

// runs counts the runs of equal values in an ascending slice: its distinct
// values, each NaN counted apart.
func runs[T cmp.Ordered](s []T) int {
	n := 0
	for i := range s {
		if i == 0 || s[i] != s[i-1] {
			n++
		}
	}
	return n
}

func reservoirSample(n, k int, seed int64) []int32 {
	out := make([]int32, min(n, k))
	for i := range out {
		out[i] = int32(i)
	}
	if k >= n {
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = int32(i)
		}
	}
	slices.Sort(out)
	return out
}

// CatalogStats maps table name → statistics for a whole catalog.
type CatalogStats struct {
	Tables map[string]*TableStats
}

// CollectCatalog gathers statistics for every table in cat.
func CollectCatalog(cat *data.Catalog, opts Options) *CatalogStats {
	cs := &CatalogStats{Tables: make(map[string]*TableStats)}
	for _, name := range cat.TableNames() {
		cs.Tables[name] = Collect(cat.Table(name), opts)
	}
	return cs
}
