// White-box property tests for the vectorized filter kernels: on random
// columns of every Kind, every CmpOp and every kernel family, the block
// kernels (with zone-map pruning) must select exactly the rows the scalar
// matchesAll path selects — including NaN floats, empty columns, and
// lengths straddling zone-block boundaries.
package exec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lqo/internal/data"
	"lqo/internal/query"
)

// kernelLens are column lengths chosen to straddle every interesting
// boundary: empty, single row, one row either side of a zone block, and
// multi-block with a ragged tail.
var kernelLens = []int{0, 1, 7, data.ZoneBlockSize - 1, data.ZoneBlockSize, data.ZoneBlockSize + 1, 3*data.ZoneBlockSize + 17}

var allOps = []query.CmpOp{query.Eq, query.Ne, query.Lt, query.Le, query.Gt, query.Ge, query.Between}

// randIntCol builds an Int column with a small value domain (so Eq hits)
// plus occasional huge keys above 2^53 to exercise exact int64 compares.
func randIntCol(rng *rand.Rand, n int) *data.Column {
	c := &data.Column{Name: "k", Kind: data.Int}
	for i := 0; i < n; i++ {
		v := rng.Int63n(50)
		if rng.Intn(16) == 0 {
			v = (int64(1) << 53) + rng.Int63n(4)
		}
		c.Ints = append(c.Ints, v)
	}
	return c
}

// randFloatCol builds a Float column with NaN rows sprinkled in; when
// allNaNBlock is set, the second zone block (if present) is entirely NaN
// so all-NaN pruning is exercised.
func randFloatCol(rng *rand.Rand, n int, allNaNBlock bool) *data.Column {
	c := &data.Column{Name: "f", Kind: data.Float}
	for i := 0; i < n; i++ {
		v := rng.Float64() * 100
		if rng.Intn(10) == 0 {
			v = math.NaN()
		}
		if allNaNBlock && i/data.ZoneBlockSize == 1 {
			v = math.NaN()
		}
		c.Flts = append(c.Flts, v)
	}
	return c
}

// randStringCol builds a dictionary-encoded String column.
func randStringCol(rng *rand.Rand, n int) *data.Column {
	c := &data.Column{Name: "s", Kind: data.String, Dict: data.NewDict()}
	for i := 0; i < n; i++ {
		c.Ints = append(c.Ints, c.Dict.Code(fmt.Sprintf("v%d", rng.Intn(30))))
	}
	return c
}

// randPred draws a predicate over column c. For non-Float columns the
// value is integral most of the time, but sometimes a float literal so
// the mixed-kind fallback family is exercised too.
func randPred(rng *rand.Rand, c *data.Column, op query.CmpOp) query.Pred {
	p := query.Pred{Alias: "t", Column: c.Name, Op: op}
	pick := func() data.Value {
		if c.Kind == data.Float {
			if rng.Intn(12) == 0 {
				return data.FloatVal(math.NaN())
			}
			return data.FloatVal(rng.Float64() * 100)
		}
		if rng.Intn(4) == 0 {
			return data.FloatVal(rng.Float64() * 50)
		}
		if rng.Intn(16) == 0 {
			return data.IntVal((int64(1) << 53) + rng.Int63n(4))
		}
		return data.IntVal(rng.Int63n(50))
	}
	p.Val = pick()
	if op == query.Between {
		p.Val2 = pick()
		if p.Val.AsFloat() > p.Val2.AsFloat() && rng.Intn(3) > 0 {
			p.Val, p.Val2 = p.Val2, p.Val // mostly sane ranges, sometimes empty ones
		}
	}
	return p
}

// scalarSelect is the ground truth: row ids matching preds via matchesAll.
func scalarSelect(cols []*data.Column, preds []query.Pred, lo, hi int) []int32 {
	var out []int32
	for i := lo; i < hi; i++ {
		if matchesAll(cols, preds, i) {
			out = append(out, int32(i))
		}
	}
	return out
}

func sameIDs(t *testing.T, ctxMsg string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d ids != %d (got %v want %v)", ctxMsg, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id[%d] = %d, want %d", ctxMsg, i, got[i], want[i])
		}
	}
}

// filterAll is the scan's block walk over [lo, hi) with no batch limit.
func filterAll(bf *blockFilter, lo, hi int) []int32 {
	sel, _, _ := bf.filterBlocks(context.Background(), lo, hi, math.MaxInt, nil)
	return sel
}

// checkEquiv asserts every vectorized entry point agrees with the scalar
// path on (cols, preds), and that pruned blocks truly contain no matches.
func checkEquiv(t *testing.T, rng *rand.Rand, cols []*data.Column, preds []query.Pred, nrows int, msg string) {
	t.Helper()
	bf := newBlockFilter(cols, preds, nrows)
	want := scalarSelect(cols, preds, 0, nrows)

	sameIDs(t, msg+"/filterBlocks", filterAll(bf, 0, nrows), want)

	// Non-aligned sub-span: [lo, hi) cut at arbitrary offsets.
	if nrows > 2 {
		lo := rng.Intn(nrows)
		hi := lo + rng.Intn(nrows-lo)
		sameIDs(t, msg+"/subSpan", filterAll(bf, lo, hi),
			scalarSelect(cols, preds, lo, hi))
	}

	// refineIDs over a scattered posting list must keep exactly the
	// matching ids, in order.
	var ids, wantIDs []int32
	for i := 0; i < nrows; i++ {
		if rng.Intn(3) == 0 {
			ids = append(ids, int32(i))
			if matchesAll(cols, preds, i) {
				wantIDs = append(wantIDs, int32(i))
			}
		}
	}
	sameIDs(t, msg+"/refineIDs", bf.refineIDs(ids), wantIDs)

	// Soundness of pruning: a skipped block must contain no matching row.
	for b, skipped := range bf.pruned {
		if !skipped {
			continue
		}
		lo := b * data.ZoneBlockSize
		hi := lo + data.ZoneBlockSize
		if hi > nrows {
			hi = nrows
		}
		if got := scalarSelect(cols, preds, lo, hi); len(got) != 0 {
			t.Fatalf("%s: pruned block %d contains %d matching rows", msg, b, len(got))
		}
	}
}

// TestKernelsMatchScalar is the kernel ≡ matchesAll property test over
// all Kinds × CmpOps × kernel families × block-boundary lengths.
func TestKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range kernelLens {
		cols := map[string]*data.Column{
			"int":    randIntCol(rng, n),
			"float":  randFloatCol(rng, n, false),
			"nanblk": randFloatCol(rng, n, true),
			"str":    randStringCol(rng, n),
		}
		for name, c := range cols {
			for _, op := range allOps {
				for trial := 0; trial < 8; trial++ {
					p := randPred(rng, c, op)
					checkEquiv(t, rng, []*data.Column{c}, []query.Pred{p}, n,
						fmt.Sprintf("n=%d col=%s op=%s trial=%d", n, name, op, trial))
				}
			}
		}
		// Multi-predicate conjunctions across kinds: first-kernel + refine.
		for trial := 0; trial < 12; trial++ {
			var cs []*data.Column
			var ps []query.Pred
			for _, c := range []*data.Column{cols["int"], cols["float"], cols["str"]} {
				if rng.Intn(2) == 0 {
					cs = append(cs, c)
					ps = append(ps, randPred(rng, c, allOps[rng.Intn(len(allOps))]))
				}
			}
			if len(ps) == 0 {
				continue
			}
			checkEquiv(t, rng, cs, ps, n, fmt.Sprintf("n=%d conj trial=%d", n, trial))
		}
	}
}

// TestBlockFilterNoPreds pins the degenerate no-predicate filter: every
// row selected, zero blocks reported.
func TestBlockFilterNoPreds(t *testing.T) {
	n := data.ZoneBlockSize + 5
	c := randIntCol(rand.New(rand.NewSource(1)), n)
	bf := newBlockFilter([]*data.Column{c}, nil, n)
	if total, skipped := bf.blocks(); total != 0 || skipped != 0 {
		t.Fatalf("no-pred filter reports blocks total=%d skipped=%d", total, skipped)
	}
	got := filterAll(bf, 0, n)
	if len(got) != n {
		t.Fatalf("no-pred filter selected %d of %d rows", len(got), n)
	}
}

// withExtremes moves p's literals, and about a quarter of the rows of an
// Int column c, onto int64's edges, where a compare that subtracts or
// converts would wrap. A Between gets two distinct edges, in order, or
// with empty reversed: a > b, an empty range whose bounds may straddle
// the whole domain.
func withExtremes(rng *rand.Rand, c *data.Column, p query.Pred, empty bool) query.Pred {
	if c.Kind == data.Float {
		return p
	}
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	if c.Kind == data.Int {
		for i := range c.Ints {
			if rng.Intn(4) == 0 {
				c.Ints[i] = edges[rng.Intn(len(edges))]
			}
		}
	}
	p.Val = data.IntVal(edges[rng.Intn(len(edges))])
	if p.Op == query.Between {
		i, j := rng.Intn(len(edges)), rng.Intn(len(edges)-1)
		if j >= i {
			j++
		}
		a, b := edges[min(i, j)], edges[max(i, j)]
		if empty {
			a, b = b, a
		}
		p.Val, p.Val2 = data.IntVal(a), data.IntVal(b)
	}
	return p
}

// FuzzKernelsMatchScalar fuzzes the kernel ≡ matchesAll equivalence from
// a random seed: the seed derives a column (kind, length, values) and a
// predicate, and the vectorized and scalar paths must agree. op2 below
// len(allOps) adds a second conjunct over a second column, which refines
// the first's selection in place (refineKernel); a nonzero edges puts
// int64's extremes into the int literals and rows (withExtremes), bit 1
// asking for an empty Between.
func FuzzKernelsMatchScalar(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), uint8(0), uint8(7), uint8(0))
	f.Add(int64(2), uint16(1), uint8(1), uint8(6), uint8(7), uint8(0))
	f.Add(int64(3), uint16(data.ZoneBlockSize), uint8(2), uint8(3), uint8(7), uint8(0))
	f.Add(int64(4), uint16(data.ZoneBlockSize+1), uint8(0), uint8(2), uint8(7), uint8(0))
	f.Add(int64(5), uint16(2*data.ZoneBlockSize+1), uint8(0), uint8(6), uint8(6), uint8(0))
	f.Add(int64(6), uint16(data.ZoneBlockSize+9), uint8(2), uint8(2), uint8(1<<3|4), uint8(0))
	f.Add(int64(7), uint16(2*data.ZoneBlockSize+1), uint8(0), uint8(6), uint8(7), uint8(3))
	f.Add(int64(8), uint16(data.ZoneBlockSize+3), uint8(0), uint8(6), uint8(6), uint8(1))
	f.Add(int64(9), uint16(700), uint8(2), uint8(2), uint8(3), uint8(1))
	f.Add(int64(10), uint16(data.ZoneBlockSize+5), uint8(0), uint8(0), uint8(6), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16, kindByte, opByte, op2, edges uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(n16) % (2*data.ZoneBlockSize + 3)
		col := func(kind uint8) *data.Column {
			switch kind % 3 {
			case 0:
				return randIntCol(rng, n)
			case 1:
				return randFloatCol(rng, n, n > data.ZoneBlockSize && seed%2 == 0)
			default:
				return randStringCol(rng, n)
			}
		}
		cols := []*data.Column{col(kindByte)}
		preds := []query.Pred{randPred(rng, cols[0], allOps[int(opByte)%len(allOps)])}
		if op := int(op2) % 8; op < len(allOps) {
			cols = append(cols, col(op2>>3))
			preds = append(preds, randPred(rng, cols[1], allOps[op]))
		}
		if edges != 0 {
			for i := range preds {
				preds[i] = withExtremes(rng, cols[i], preds[i], edges&2 != 0)
			}
		}
		checkEquiv(t, rng, cols, preds, n, fmt.Sprintf("seed=%d n=%d preds=%v", seed, n, preds))
	})
}
