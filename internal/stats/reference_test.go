package stats

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"lqo/internal/data"
	"lqo/internal/datagen"
)

// The reference statistics: one pass per statistic, each with its own
// copy or map of the column. Collect must produce exactly these.

func refHistogram(c *data.Column, buckets int) *Histogram {
	n := c.Len()
	if n == 0 {
		return &Histogram{Total: 0}
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = c.Float(i)
	}
	sort.Float64s(vals)
	buckets = min(buckets, n)
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

func refMCV(c *data.Column, k int) *MCV {
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

func refDistinct(c *data.Column) int {
	if c.Kind == data.Float {
		seen := make(map[float64]struct{}, len(c.Flts))
		for _, v := range c.Flts {
			seen[v] = struct{}{}
		}
		return len(seen)
	}
	seen := make(map[int64]struct{}, len(c.Ints))
	for _, v := range c.Ints {
		seen[v] = struct{}{}
	}
	return len(seen)
}

func refCollectCatalog(cat *data.Catalog, opts Options) *CatalogStats {
	out := &CatalogStats{Tables: make(map[string]*TableStats)}
	for _, name := range cat.TableNames() {
		t := cat.Table(name)
		ts := &TableStats{Table: t.Name, Rows: float64(t.NumRows()), Cols: make(map[string]*ColumnStats)}
		for _, c := range t.Cols {
			cs := &ColumnStats{
				Hist:     refHistogram(c, histogramBuckets),
				MCVs:     refMCV(c, mcvSize),
				Distinct: float64(refDistinct(c)),
				Rows:     float64(t.NumRows()),
			}
			if lo, hi, ok := c.MinMax(); ok {
				cs.Min, cs.Max = lo, hi
			}
			ts.Cols[c.Name] = cs
		}
		ts.Sample = reservoirSample(t.NumRows(), sampleSize, opts.Seed)
		out.Tables[name] = ts
	}
	return out
}

// statsBits flattens every float of cs to its bits, tables and columns in
// name order: reflect.DeepEqual compares floats with ==, which does not
// tell -0 from +0. MCV values are left out: a zero in the list may carry
// either sign, and MCV.Freq, their only reader, compares them with ==.
func statsBits(cs *CatalogStats) []uint64 {
	var out []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			out = append(out, math.Float64bits(f))
		}
	}
	for _, tn := range slices.Sorted(maps.Keys(cs.Tables)) {
		ts := cs.Tables[tn]
		add(ts.Rows)
		for _, cn := range slices.Sorted(maps.Keys(ts.Cols)) {
			c := ts.Cols[cn]
			add(c.Distinct, c.Min, c.Max, c.Rows, c.Hist.Total)
			add(c.Hist.Bounds...)
			add(c.Hist.Counts...)
			add(c.Hist.NDVs...)
			add(c.MCVs.Freqs...)
		}
	}
	return out
}

func assertMatchesReference(t *testing.T, what string, cat *data.Catalog, opts Options) {
	t.Helper()
	got, want := CollectCatalog(cat, opts), refCollectCatalog(cat, opts)
	if !reflect.DeepEqual(got, want) {
		for name, wt := range want.Tables {
			for col, wc := range wt.Cols {
				if gc := got.Tables[name].Cols[col]; !reflect.DeepEqual(gc, wc) {
					t.Errorf("%s: %s.%s:\n got  hist %+v mcv %+v distinct %v\n want hist %+v mcv %+v distinct %v",
						what, name, col, gc.Hist, gc.MCVs, gc.Distinct, wc.Hist, wc.MCVs, wc.Distinct)
				}
			}
		}
		t.Fatalf("%s: CollectCatalog differs from the reference", what)
	}
	if !slices.Equal(statsBits(got), statsBits(want)) {
		t.Fatalf("%s: CollectCatalog equals the reference but not bit for bit", what)
	}
}

// TestCollectMatchesReference checks Collect against the reference on the
// three generated schemas, fresh and after two rounds of drift.
func TestCollectMatchesReference(t *testing.T) {
	gens := []struct {
		name string
		gen  func(datagen.Config) *data.Catalog
	}{
		{"statsceb", datagen.StatsCEB},
		{"joblite", datagen.JOBLite},
		{"tpchlite", datagen.TPCHLite},
	}
	for _, g := range gens {
		for _, seed := range []int64{1, 2} {
			cat := g.gen(datagen.Config{Seed: seed, Scale: 0.05})
			assertMatchesReference(t, fmt.Sprintf("%s seed %d", g.name, seed), cat, Options{Seed: seed})
			for round := 1; round <= 2; round++ {
				datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: seed + 1000*int64(round), Fraction: 0.6, ValueSkew: 2.5, DomainShift: 0.6})
				assertMatchesReference(t, fmt.Sprintf("%s seed %d drift %d", g.name, seed, round), cat, Options{Seed: seed})
			}
		}
	}
}

// TestCollectEdgeColumns checks Collect against the reference on columns
// built to hit the cases a sort-and-scan gets wrong: no rows, one value,
// fewer values than MCV slots, ties at the last slot, negative values,
// signed zeros, and integers whose float images collide.
func TestCollectEdgeColumns(t *testing.T) {
	const big = int64(1) << 53
	ints := map[string][]int64{
		"empty":     nil,
		"one":       {7},
		"all-equal": slices.Repeat([]int64{42}, 100),
		"few":       {3, 1, 3, 2, 3, 1},
		"negative":  {-5, -5, 3, -1, -1, -1, 0, -7, 3, -5},
		"beyond-2^53": {big, big + 1, big + 2, big + 3, big + 4, big + 5, big + 5,
			-big, -big - 1, -big - 2, -big - 3, 1<<62 + 1, 1 << 62, 1<<62 - 1, math.MaxInt64, math.MinInt64},
	}
	// Ties at the k-th slot: mcvSize+3 values with equal counts, listed in
	// descending order, and one more frequent value.
	var ties []int64
	for r := 0; r < 4; r++ {
		for v := int64(mcvSize + 3); v > 0; v-- {
			ties = append(ties, v*10)
		}
	}
	ints["ties"] = append(ties, 55, 55, 55, 55, 55)
	negZero := math.Copysign(0, -1)
	floats := map[string][]float64{
		"empty":      nil,
		"signed-0":   {0, negZero, 1.5, negZero, 0, 2, negZero, -1},
		"signed-0-b": {negZero, 0, 0, 3, 0, negZero, 0},
		"only-neg-0": {negZero, negZero, 4},
		"negative":   {-1.5, -1.5, -0.25, -3, -0.25, -1.5, 8},
		"ints-as-f":  {float64(big), float64(big + 2), float64(big), -0.5, -0.5},
	}
	cat := data.NewCatalog()
	for name, vals := range ints {
		c := &data.Column{Name: "v", Kind: data.Int}
		s := &data.Column{Name: "s", Kind: data.String}
		for _, v := range vals {
			c.AppendInt(v)
			s.AppendString(fmt.Sprint(v % 5))
		}
		cat.Add(data.NewTable("int-"+name, c, s))
	}
	for name, vals := range floats {
		c := &data.Column{Name: "v", Kind: data.Float}
		for _, v := range vals {
			c.AppendFloat(v)
		}
		cat.Add(data.NewTable("float-"+name, c))
	}
	assertMatchesReference(t, "edge columns", cat, Options{Seed: 3})

	// The columns beyond 2^53 count their exact values, not their images.
	if d := CollectCatalog(cat, Options{}).Tables["int-beyond-2^53"].Cols["v"].Distinct; d != 15 {
		t.Fatalf("beyond-2^53 distinct = %v, want 15", d)
	}
}

// TestCollectAllocationsIndependentOfValues checks that what Collect
// allocates does not grow with a column's distinct values or rows: no
// per-value map, no per-column copy, no slice grown by appends.
func TestCollectAllocationsIndependentOfValues(t *testing.T) {
	table := func(rows, distinct int) *data.Table {
		a := &data.Column{Name: "a", Kind: data.Int}
		f := &data.Column{Name: "f", Kind: data.Float}
		for i := 0; i < rows; i++ {
			a.AppendInt(int64((i * 7919) % distinct))
			f.AppendFloat(float64((i*104729)%distinct) / 4)
		}
		return data.NewTable("t", a, f)
	}
	allocs := func(tb *data.Table) float64 {
		return testing.AllocsPerRun(5, func() { Collect(tb, Options{Seed: 1}) })
	}
	few, many, more := allocs(table(4096, 40)), allocs(table(4096, 4096)), allocs(table(16384, 16384))
	if few != many || many != more {
		t.Fatalf("Collect allocations: %v (4096 rows, 40 values), %v (4096, 4096), %v (16384, 16384); want all equal", few, many, more)
	}
}

// BenchmarkCollectCatalog times the statistics refresh the adaptation
// loop's retrain runs: StatsCEB at scale 0.02 after two drift stages.
func BenchmarkCollectCatalog(b *testing.B) {
	cat := datagen.StatsCEB(datagen.Config{Seed: 42, Scale: 0.02})
	for stage := 1; stage <= 2; stage++ {
		datagen.ApplyDrift(cat, datagen.DriftOptions{Seed: 42 + 1000*int64(stage), Fraction: 0.6, ValueSkew: 2.5, DomainShift: 0.6})
	}
	b.ReportAllocs()
	for b.Loop() {
		CollectCatalog(cat, Options{Seed: 42})
	}
}
