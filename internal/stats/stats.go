// Package stats implements the traditional per-column statistics a
// classical optimizer keeps — equi-depth histograms, most-common-value
// lists, distinct counts, and reservoir samples — and the per-table
// container the traditional cardinality estimator consumes.
package stats

import (
	"math"
	"math/rand"
	"sort"

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

// BuildHistogram constructs an equi-depth histogram with at most buckets
// buckets from the column's values.
func BuildHistogram(c *data.Column, buckets int) *Histogram {
	n := c.Len()
	if n == 0 {
		return &Histogram{Total: 0}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = c.Float(i)
	}
	return BuildHistogramFromValues(vals, buckets)
}

// BuildHistogramFromValues is BuildHistogram over a raw value slice (which
// is sorted in place). It is shared by the SPN estimator's leaves.
func BuildHistogramFromValues(vals []float64, buckets int) *Histogram {
	n := len(vals)
	if n == 0 {
		return &Histogram{Total: 0}
	}
	sort.Float64s(vals)
	if buckets < 1 {
		buckets = 1
	}
	if buckets > n {
		buckets = n
	}
	h := &Histogram{Total: float64(n)}
	per := n / buckets
	rem := n % buckets
	h.Bounds = append(h.Bounds, vals[0])
	start := 0
	for b := 0; b < buckets; b++ {
		cnt := per
		if b < rem {
			cnt++
		}
		if cnt == 0 {
			continue
		}
		if start >= n {
			break
		}
		end := start + cnt
		if end > n {
			end = n
		}
		// Extend the bucket so equal values never straddle a boundary.
		for end < n && vals[end] == vals[end-1] {
			end++
		}
		ndv := 1.0
		for i := start + 1; i < end; i++ {
			if vals[i] != vals[i-1] {
				ndv++
			}
		}
		h.Bounds = append(h.Bounds, vals[end-1])
		h.Counts = append(h.Counts, float64(end-start))
		h.NDVs = append(h.NDVs, ndv)
		start = end
		if start >= n {
			break
		}
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

// BuildMCV returns the top-k most frequent values (numeric domain) with
// deterministic tie-breaking by value.
func BuildMCV(c *data.Column, k int) *MCV {
	n := c.Len()
	counts := make(map[float64]int, n)
	for i := 0; i < n; i++ {
		counts[c.Float(i)]++
	}
	type vc struct {
		v float64
		c int
	}
	all := make([]vc, 0, len(counts))
	for v, cnt := range counts {
		all = append(all, vc{v, cnt})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	m := &MCV{}
	for i := 0; i < k; i++ {
		m.Values = append(m.Values, all[i].v)
		m.Freqs = append(m.Freqs, float64(all[i].c)/float64(n))
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

// Collect gathers statistics for every column of t.
func Collect(t *data.Table, opts Options) *TableStats {
	ts := &TableStats{Table: t.Name, Rows: float64(t.NumRows()), Cols: make(map[string]*ColumnStats)}
	for _, c := range t.Cols {
		cs := &ColumnStats{
			Hist:     BuildHistogram(c, histogramBuckets),
			MCVs:     BuildMCV(c, mcvSize),
			Distinct: float64(c.DistinctCount()),
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

func reservoirSample(n, k int, seed int64) []int32 {
	if k >= n {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		out[i] = int32(i)
	}
	for i := k; i < n; i++ {
		j := rng.Intn(i + 1)
		if j < k {
			out[j] = int32(i)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
