package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lqo/internal/data"
)

// histogramOf builds the histogram Collect keeps for a column of vals, at
// the given bucket count.
func histogramOf(vals []int64, buckets int) *Histogram {
	fs := make([]float64, len(vals))
	for i, v := range vals {
		fs[i] = float64(v)
	}
	return BuildHistogramFromValues(fs, buckets)
}

func intColumn(vals []int64) *data.Column {
	c := &data.Column{Name: "v", Kind: data.Int}
	for _, v := range vals {
		c.AppendInt(v)
	}
	return c
}

// exactRangeSel counts the true fraction of values in [lo, hi].
func exactRangeSel(vals []int64, lo, hi float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range vals {
		f := float64(v)
		if f >= lo && f <= hi {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}

func TestHistogramFullRange(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	h := histogramOf(vals, 4)
	if sel := h.SelectivityRange(1, 10); math.Abs(sel-1) > 1e-9 {
		t.Fatalf("full range sel = %v", sel)
	}
	if sel := h.SelectivityRange(11, 20); sel != 0 {
		t.Fatalf("out of range sel = %v", sel)
	}
	if sel := h.SelectivityRange(5, 4); sel != 0 {
		t.Fatalf("inverted range sel = %v", sel)
	}
}

func TestHistogramAccuracyUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]int64, 5000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1000))
	}
	h := histogramOf(vals, 32)
	for trial := 0; trial < 50; trial++ {
		lo := float64(rng.Intn(900))
		hi := lo + float64(rng.Intn(100))
		got := h.SelectivityRange(lo, hi)
		want := exactRangeSel(vals, lo, hi)
		if math.Abs(got-want) > 0.05 {
			t.Fatalf("range [%v,%v]: got %v, want %v", lo, hi, got, want)
		}
	}
}

func TestHistogramSkewedEquality(t *testing.T) {
	// 90% of values are 7; MCV-free histogram should still see that mass.
	vals := make([]int64, 1000)
	for i := range vals {
		if i < 900 {
			vals[i] = 7
		} else {
			vals[i] = int64(i)
		}
	}
	h := histogramOf(vals, 16)
	sel := h.SelectivityEq(7)
	if sel < 0.2 {
		t.Fatalf("heavy hitter selectivity = %v, want substantial", sel)
	}
	if h.SelectivityEq(-100) != 0 {
		t.Fatal("out-of-domain equality should be 0")
	}
}

func TestHistogramPropertyBounds(t *testing.T) {
	err := quick.Check(func(raw []int16, a, b int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		h := histogramOf(vals, 8)
		lo, hi := float64(a), float64(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		sel := h.SelectivityRange(lo, hi)
		return sel >= 0 && sel <= 1+1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramTotalMassProperty(t *testing.T) {
	err := quick.Check(func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		h := histogramOf(vals, 8)
		// Sum of bucket counts equals total rows.
		sum := 0.0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == float64(len(vals))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMCV(t *testing.T) {
	m := mcvOfSorted([]float64{3, 3, 5, 5, 5, 9}, 2)
	if len(m.Values) != 2 || m.Values[0] != 5 || m.Values[1] != 3 {
		t.Fatalf("MCV = %+v", m)
	}
	if f, ok := m.Freq(5); !ok || math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("Freq(5) = %v %v", f, ok)
	}
	if _, ok := m.Freq(9); ok {
		t.Fatal("9 should not be an MCV")
	}
}

func TestCollectAndCatalog(t *testing.T) {
	// 1500 rows over 40 values: more rows than the sample keeps, more
	// values than the MCV list and the histogram's buckets hold.
	vals := make([]int64, 1500)
	for i := range vals {
		vals[i] = int64(i % 40)
	}
	cat := data.NewCatalog()
	cat.Add(data.NewTable("t", intColumn(vals)))
	cs := CollectCatalog(cat, Options{Seed: 1})
	ts := cs.Tables["t"]
	if ts == nil {
		t.Fatal("missing table stats")
	}
	if ts.Rows != 1500 {
		t.Fatalf("Rows = %v", ts.Rows)
	}
	col := ts.Cols["v"]
	if col.Distinct != 40 || col.Min != 0 || col.Max != 39 {
		t.Fatalf("col stats = %+v", col)
	}
	if len(col.MCVs.Values) != mcvSize {
		t.Fatalf("%d MCVs, want %d", len(col.MCVs.Values), mcvSize)
	}
	if b := len(col.Hist.Counts); b == 0 || b > histogramBuckets {
		t.Fatalf("%d histogram buckets, want 1..%d", b, histogramBuckets)
	}
	if len(ts.Sample) != sampleSize {
		t.Fatalf("sample has %d rows, want %d", len(ts.Sample), sampleSize)
	}
	seen := map[int32]bool{}
	for _, r := range ts.Sample {
		if r < 0 || r >= 1500 || seen[r] {
			t.Fatalf("sample row out of range or repeated: %d", r)
		}
		seen[r] = true
	}
}

func TestReservoirSampleDeterministic(t *testing.T) {
	a := reservoirSample(1000, 50, 42)
	b := reservoirSample(1000, 50, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampling not deterministic")
		}
	}
	c := reservoirSample(10, 50, 42)
	if len(c) != 10 {
		t.Fatalf("small-n sample = %d rows", len(c))
	}
}

func TestHistogramEqualValuesDontStraddle(t *testing.T) {
	// All-equal column: one bucket, eq selectivity 1.
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = 42
	}
	h := histogramOf(vals, 8)
	if sel := h.SelectivityEq(42); math.Abs(sel-1) > 1e-9 {
		t.Fatalf("all-equal eq sel = %v", sel)
	}
}
