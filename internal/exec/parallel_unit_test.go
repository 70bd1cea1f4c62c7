package exec

import (
	"testing"
)

func TestSplitSpansCoverAndOrder(t *testing.T) {
	for _, c := range []struct{ n, w int }{
		{0, 4}, {1, 4}, {7, 3}, {2048, 8}, {2049, 8}, {100, 1}, {3, 100},
	} {
		spans := splitSpans(c.n, c.w)
		next := 0
		for _, s := range spans {
			if s.lo != next {
				t.Fatalf("splitSpans(%d,%d): gap or overlap at %d (got lo=%d)", c.n, c.w, next, s.lo)
			}
			if s.hi <= s.lo {
				t.Fatalf("splitSpans(%d,%d): empty span %+v", c.n, c.w, s)
			}
			next = s.hi
		}
		if next != c.n {
			t.Fatalf("splitSpans(%d,%d): covers [0,%d), want [0,%d)", c.n, c.w, next, c.n)
		}
		if len(spans) > c.w {
			t.Fatalf("splitSpans(%d,%d): %d spans exceed worker count", c.n, c.w, len(spans))
		}
	}
}

// TestCollectSpansPreservesOrder pins the span-vector concatenation
// contract: per-span output lands in dst in span order (the serial
// iteration order), column by column, with and without a pool.
func TestCollectSpansPreservesOrder(t *testing.T) {
	for _, pool := range []*BatchPool{nil, NewBatchPool()} {
		spans := []span{{0, 2}, {2, 2}, {2, 3}, {3, 6}}
		dst := [][]int32{{0}, {0}}
		var parts [][]int32
		ok := collectSpans(pool, spans, dst, &parts, func(si int, sp span, out [][]int32) bool {
			for i := sp.lo; i < sp.hi; i++ {
				out[0] = append(out[0], int32(i+1))
				out[1] = append(out[1], -int32(i+1))
			}
			return true
		})
		if !ok {
			t.Fatal("collectSpans aborted without an aborting fill")
		}
		if len(dst[0]) != 7 || len(dst[1]) != 7 {
			t.Fatalf("collected %d/%d rows, want 7", len(dst[0]), len(dst[1]))
		}
		for i := range dst[0] {
			if dst[0][i] != int32(i) || dst[1][i] != -int32(i) {
				t.Fatalf("position %d holds %d/%d, want %d/%d", i, dst[0][i], dst[1][i], i, -i)
			}
		}
		if pool != nil && pool.InUse() != 0 {
			t.Fatalf("pool reports %d buffers in use after collectSpans", pool.InUse())
		}
	}
}

// TestCollectSpansAbortLeavesDstUnchanged pins the abort contract: any
// fill returning false discards every span's output.
func TestCollectSpansAbortLeavesDstUnchanged(t *testing.T) {
	pool := NewBatchPool()
	dst := [][]int32{{7}}
	var parts [][]int32
	ok := collectSpans(pool, []span{{0, 1}, {1, 2}}, dst, &parts, func(si int, sp span, out [][]int32) bool {
		out[0] = append(out[0], int32(sp.lo))
		return si != 1
	})
	if ok {
		t.Fatal("collectSpans reported ok despite an aborting fill")
	}
	if len(dst[0]) != 1 || dst[0][0] != 7 {
		t.Fatalf("dst changed on abort: %v", dst)
	}
	if pool.InUse() != 0 {
		t.Fatalf("pool reports %d buffers in use after abort", pool.InUse())
	}
}

// TestProductExceedsOverflow is the regression test for the cross-product
// cap guard: the old code computed left.Len()*right.Len() in int, which
// wraps negative on overflow and sails past the `> maxRows` comparison.
func TestProductExceedsOverflow(t *testing.T) {
	const cap32 = 5_000_000
	cases := []struct {
		a, b, limit int
		want        bool
	}{
		{10, 10, cap32, false},
		{cap32, 1, cap32, false},
		{cap32, 2, cap32, true},
		{cap32 + 1, 1, cap32, true},
		// Pre-fix: 1<<31 * 1<<33 = 1<<64 wraps to 0 in int/int64 and the
		// guard judged the cross product "small enough".
		{1 << 31, 1 << 33, cap32, true},
		// Pre-fix: this product is ~2^62.4; in 32-bit int it wraps, and
		// even int64 arithmetic overflows for slightly larger inputs.
		{3_037_000_500, 3_037_000_500, cap32, true},
		{0, 1 << 62, cap32, false},
	}
	for _, c := range cases {
		if got := productExceeds(c.a, c.b, c.limit); got != c.want {
			t.Errorf("productExceeds(%d, %d, %d) = %v, want %v", c.a, c.b, c.limit, got, c.want)
		}
	}
}
