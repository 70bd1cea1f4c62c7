// Vectorized filter kernels and zone-map block pruning.
//
// The scalar specification, matchesAll, evaluates predicates
// row-at-a-time: per row, per predicate, a Kind branch, a Value conversion
// and a CmpOp switch. The kernels decide all of that once per scan —
// compilePred binds each predicate to its column's typed storage
// and picks a (Kind × CmpOp) kernel family — and then runs tight
// branch-free-per-row loops directly over []int64 / []float64 blocks,
// appending matching row ids to a reusable selection vector. Int and
// dictionary-encoded String columns with integral predicate values
// compare exactly in int64 (no float round-trip); Between is a single
// fused range kernel; float kernels preserve NaN semantics bit-for-bit.
//
// Before a block's kernel runs, its zone map (per-block min/max, see
// data/zonemap.go) is consulted: a block whose range provably cannot
// satisfy some conjunct is skipped without reading any row. Pruning is
// semantically invisible — a skipped block contributes no rows either
// way — and costing is unchanged: scans charge the canonical per-row
// read/predicate work for every base row whether or not its block was
// skipped, so CostStats, WorkUnits and all learned-cost training labels
// are byte-identical to the scalar evaluation. Skipping is surfaced only
// as telemetry (OpTelemetry.BlocksTotal/BlocksSkipped).
//
// Every scan runs these kernels. matchesAll survives as the oracle they
// must reproduce: the reference evaluator filters with it, and the
// kernels property tests and fuzz target compare against it.
package exec

import (
	"context"
	"slices"

	"lqo/internal/data"
	"lqo/internal/query"
)

// number is the element domain of the typed kernels.
type number interface {
	~int64 | ~float64
}

// compiledPred is one filter predicate bound to its column's typed
// storage, with the kernel family decided at compile time:
//
//	intExact          exact int64 compares (Int/String column, integral value)
//	flts != nil       float64 compares over a Float column
//	otherwise         float64 compares over converted Int values (mixed kinds)
type compiledPred struct {
	col      *data.Column
	op       query.CmpOp
	ints     []int64
	flts     []float64
	intExact bool
	iv, iv2  int64
	fv, fv2  float64
}

// compilePred binds p to its column c.
func compilePred(c *data.Column, p query.Pred) compiledPred {
	cp := compiledPred{col: c, op: p.Op}
	if c.Kind == data.Float {
		cp.flts = c.Flts
		cp.fv, cp.fv2 = p.Val.AsFloat(), p.Val2.AsFloat()
		return cp
	}
	cp.ints = c.Ints
	if p.Val.K != data.Float && (p.Op != query.Between || p.Val2.K != data.Float) {
		cp.intExact = true
		cp.iv, cp.iv2 = p.Val.I, p.Val2.I
		return cp
	}
	cp.fv, cp.fv2 = p.Val.AsFloat(), p.Val2.AsFloat()
	return cp
}

// filterRange appends to sel the row ids in [lo, hi) satisfying cp.
func (cp *compiledPred) filterRange(lo, hi int32, sel []int32) []int32 {
	switch {
	case cp.intExact:
		return rangeKernel(cp.ints, lo, hi, cp.op, cp.iv, cp.iv2, sel)
	case cp.flts != nil:
		return rangeKernel(cp.flts, lo, hi, cp.op, cp.fv, cp.fv2, sel)
	default:
		for i := lo; i < hi; i++ {
			if cmpFloat(float64(cp.ints[i]), cp.op, cp.fv, cp.fv2) {
				sel = append(sel, i)
			}
		}
		return sel
	}
}

// refine keeps, in place, the selection-vector entries satisfying cp.
func (cp *compiledPred) refine(sel []int32) []int32 {
	switch {
	case cp.intExact:
		return refineKernel(cp.ints, cp.op, cp.iv, cp.iv2, sel)
	case cp.flts != nil:
		return refineKernel(cp.flts, cp.op, cp.fv, cp.fv2, sel)
	default:
		out := sel[:0]
		for _, i := range sel {
			if cmpFloat(float64(cp.ints[i]), cp.op, cp.fv, cp.fv2) {
				out = append(out, i)
			}
		}
		return out
	}
}

// rangeKernel is the (Kind × CmpOp) dispatch table's hot half: one tight
// loop per operator over the typed value slice, with the comparison
// constants hoisted out of the loop. The default arm mirrors
// Pred.Matches: an unknown operator matches nothing.
func rangeKernel[T number](v []T, lo, hi int32, op query.CmpOp, a, b T, sel []int32) []int32 {
	switch op {
	case query.Eq:
		for i := lo; i < hi; i++ {
			if v[i] == a {
				sel = append(sel, i)
			}
		}
	case query.Ne:
		for i := lo; i < hi; i++ {
			if v[i] != a {
				sel = append(sel, i)
			}
		}
	case query.Lt:
		for i := lo; i < hi; i++ {
			if v[i] < a {
				sel = append(sel, i)
			}
		}
	case query.Le:
		for i := lo; i < hi; i++ {
			if v[i] <= a {
				sel = append(sel, i)
			}
		}
	case query.Gt:
		for i := lo; i < hi; i++ {
			if v[i] > a {
				sel = append(sel, i)
			}
		}
	case query.Ge:
		for i := lo; i < hi; i++ {
			if v[i] >= a {
				sel = append(sel, i)
			}
		}
	case query.Between:
		for i := lo; i < hi; i++ {
			if x := v[i]; x >= a && x <= b {
				sel = append(sel, i)
			}
		}
	}
	return sel
}

// refineKernel is rangeKernel over an existing selection vector,
// compacting it in place.
func refineKernel[T number](v []T, op query.CmpOp, a, b T, sel []int32) []int32 {
	out := sel[:0]
	switch op {
	case query.Eq:
		for _, i := range sel {
			if v[i] == a {
				out = append(out, i)
			}
		}
	case query.Ne:
		for _, i := range sel {
			if v[i] != a {
				out = append(out, i)
			}
		}
	case query.Lt:
		for _, i := range sel {
			if v[i] < a {
				out = append(out, i)
			}
		}
	case query.Le:
		for _, i := range sel {
			if v[i] <= a {
				out = append(out, i)
			}
		}
	case query.Gt:
		for _, i := range sel {
			if v[i] > a {
				out = append(out, i)
			}
		}
	case query.Ge:
		for _, i := range sel {
			if v[i] >= a {
				out = append(out, i)
			}
		}
	case query.Between:
		for _, i := range sel {
			if x := v[i]; x >= a && x <= b {
				out = append(out, i)
			}
		}
	}
	return out
}

// cmpFloat is the scalar fallback comparison for the mixed-kind family,
// matching Pred.Matches exactly (including NaN behavior).
func cmpFloat(v float64, op query.CmpOp, a, b float64) bool {
	switch op {
	case query.Eq:
		return v == a
	case query.Ne:
		return v != a
	case query.Lt:
		return v < a
	case query.Le:
		return v <= a
	case query.Gt:
		return v > a
	case query.Ge:
		return v >= a
	case query.Between:
		return v >= a && v <= b
	default:
		return false
	}
}

// prunes reports whether zone-map block b of cp's column provably
// contains no matching row. Conservative: false only means "must scan".
// Ne never prunes (NaN rows satisfy it, and it selects the full range);
// for every ordered operator NaN rows can never match, so Float blocks
// are judged by their non-NaN range and all-NaN blocks always prune. The
// mixed-kind family compares float64-converted int bounds, which is exact
// because int64→float64 conversion is monotone and the match semantics
// itself operates on the converted value.
func (cp *compiledPred) prunes(zm *data.ZoneMap, b int) bool {
	if cp.op == query.Ne {
		return false
	}
	switch {
	case cp.intExact:
		return pruneRange(zm.IntMin[b], zm.IntMax[b], cp.op, cp.iv, cp.iv2)
	case cp.flts != nil:
		if zm.Empty[b] {
			return true
		}
		return pruneRange(zm.FltMin[b], zm.FltMax[b], cp.op, cp.fv, cp.fv2)
	default:
		return pruneRange(float64(zm.IntMin[b]), float64(zm.IntMax[b]), cp.op, cp.fv, cp.fv2)
	}
}

// pruneRange reports whether a block with value range [lo, hi] can be
// skipped for "x op a" (or "x BETWEEN a AND b"). Every comparison is
// written so that a NaN predicate value yields false — never prune on
// NaN, the kernel will correctly find nothing.
func pruneRange[T number](lo, hi T, op query.CmpOp, a, b T) bool {
	switch op {
	case query.Eq:
		return a < lo || a > hi
	case query.Lt:
		return lo >= a
	case query.Le:
		return lo > a
	case query.Gt:
		return hi <= a
	case query.Ge:
		return hi < a
	case query.Between:
		return hi < a || lo > b
	default:
		return false
	}
}

// blockFilter is a compiled, zone-map-pruned conjunctive filter over a
// table's row range — the vectorized replacement for matchesAll loops in
// sequential scans. Construction compiles every predicate and computes
// the per-block prune bitmap once, so the skip decision (and the
// BlocksSkipped telemetry) is a pure function of table and predicates:
// identical at every worker count, batch size and span partitioning.
type blockFilter struct {
	preds  []compiledPred
	pruned []bool // per zone-map block; empty when there is nothing to prune
	nskip  int
}

// newBlockFilter compiles preds over their bound columns for a table of
// nrows rows.
func newBlockFilter(cols []*data.Column, preds []query.Pred, nrows int) *blockFilter {
	bf := &blockFilter{}
	bf.compile(cols, preds, nrows)
	return bf
}

// compile rebuilds the filter in place over preds and their bound columns
// (cols[i] is preds[i]'s, as produced by bindPredCols), reusing only slice
// capacity: a recycled scan's storage and bitmap are the current catalog's.
func (bf *blockFilter) compile(cols []*data.Column, preds []query.Pred, nrows int) {
	bf.reset()
	for i, p := range preds {
		bf.preds = append(bf.preds, compilePred(cols[i], p))
	}
	if len(preds) == 0 || nrows == 0 {
		return
	}
	nb := data.ZoneBlocks(nrows)
	bf.pruned = slices.Grow(bf.pruned, nb)[:nb]
	clear(bf.pruned)
	for pi := range bf.preds {
		cp := &bf.preds[pi]
		zm := cp.col.Zones()
		for b := 0; b < nb; b++ {
			if !bf.pruned[b] && cp.prunes(zm, b) {
				bf.pruned[b] = true
				bf.nskip++
			}
		}
	}
}

// reset empties the filter, dropping every reference into column storage.
func (bf *blockFilter) reset() {
	clear(bf.preds)
	*bf = blockFilter{preds: bf.preds[:0], pruned: bf.pruned[:0]}
}

// skips reports whether zone-map block b was proven non-matching.
func (bf *blockFilter) skips(b int) bool { return b < len(bf.pruned) && bf.pruned[b] }

// blocks returns the (total, skipped) zone-map block counts — the scan's
// pruning telemetry. Zero blocks when the filter has no predicates.
func (bf *blockFilter) blocks() (total, skipped int64) {
	return int64(len(bf.pruned)), int64(bf.nskip)
}

// filterRange appends to sel the matching row ids in [lo, hi), which must
// not cross a zone-block boundary unless pruning is disabled. The first
// predicate runs a range kernel; the remaining conjuncts refine the new
// suffix of the selection vector in place.
func (bf *blockFilter) filterRange(lo, hi int32, sel []int32) []int32 {
	if len(bf.preds) == 0 {
		n := len(sel)
		sel = slices.Grow(sel, int(hi-lo))[:n+int(hi-lo)]
		fillIDs(sel[n:], lo)
		return sel
	}
	mark := len(sel)
	sel = bf.preds[0].filterRange(lo, hi, sel)
	if len(bf.preds) > 1 {
		sub := sel[mark:]
		for pi := 1; pi < len(bf.preds) && len(sub) > 0; pi++ {
			sub = bf.preds[pi].refine(sub)
		}
		sel = sel[:mark+len(sub)]
	}
	return sel
}

// fillIDs sets ids[i] = lo + i: a predicate-free scan's selection vector.
// It stays out of line so that its loop keeps one offset from a 32-byte
// aligned function entry. Inlined into filterRange, the loop moved with
// unrelated code elsewhere in the package, and when it straddled a
// 64-byte line exec_heavy lost 7–10 % of its throughput.
//
//go:noinline
func fillIDs(ids []int32, lo int32) {
	for i := range ids {
		ids[i] = lo + int32(i)
	}
}

// filterSpan appends to sel the matching row ids in [lo, hi), walking the
// overlapped zone-map blocks and skipping pruned ones, and stops early
// once ctx is done (checked every 4 blocks, about cancelCheckRows rows;
// callers re-check ctx and discard the partial result). Spans need not be
// block-aligned: a pruned block has no matching rows anywhere, so any
// sub-range of it is skippable.
func (bf *blockFilter) filterSpan(ctx context.Context, lo, hi int, sel []int32) []int32 {
	for n := 0; lo < hi; n++ {
		b := lo / data.ZoneBlockSize
		end := min((b+1)*data.ZoneBlockSize, hi)
		if n%4 == 0 && ctx.Err() != nil {
			break
		}
		if !bf.skips(b) {
			sel = bf.filterRange(int32(lo), int32(end), sel)
		}
		lo = end
	}
	return sel
}

// refineIDs filters an arbitrary row-id list (an index scan's posting
// list) through every conjunct, compacting sel in place.
func (bf *blockFilter) refineIDs(sel []int32) []int32 {
	for pi := range bf.preds {
		if len(sel) == 0 {
			break
		}
		sel = bf.preds[pi].refine(sel)
	}
	return sel
}
