// Reference evaluator: the pre-pipeline recursive materialize-everything
// executor, kept as the executable specification of what the operator
// pipeline must measure. Byte-identity tests (and the memory benchmark)
// run both paths and compare Count, Value, TrueCard and WorkUnits
// bit-for-bit; this file is the ground truth side. It is deliberately
// naive and serial and shares no machinery with the pipeline: scans are a
// matchesAll row loop, joins a map from the first key column's value to
// build indices in ascending order, relations whole tuples of row ids.
package exec

import (
	"context"
	"fmt"
	"math"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// Relation is a materialized intermediate: tuples of row ids, one per
// covered alias. Only the reference evaluator materializes whole
// relations; the pipeline streams column batches.
type Relation struct {
	Aliases []string
	pos     map[string]int
	Tuples  [][]int32
}

func newRelation(aliases []string) *Relation {
	r := &Relation{Aliases: aliases, pos: make(map[string]int, len(aliases))}
	for i, a := range aliases {
		r.pos[a] = i
	}
	return r
}

// Len returns the tuple count.
func (r *Relation) Len() int { return len(r.Tuples) }

// ReferenceRun executes the plan with the reference evaluator, fully
// materializing every intermediate. Semantics match RunCtx exactly; only
// memory behavior differs.
func (e *Executor) ReferenceRun(ctx context.Context, q *query.Query, p *plan.Node) (*Result, error) {
	st := &CostStats{}
	rel, err := e.eval(ctx, q, p, st)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := &Result{Count: int64(rel.Len()), Stats: *st}
	v, err := e.aggregate(q, rel, st)
	if err != nil {
		return nil, err
	}
	res.Value = v
	return res, nil
}

// aggregate computes q.Agg over the final relation.
func (e *Executor) aggregate(q *query.Query, rel *Relation, st *CostStats) (float64, error) {
	if q.Agg.Kind == query.AggCount {
		return float64(rel.Len()), nil
	}
	pos, ok := rel.pos[q.Agg.Alias]
	if !ok {
		return 0, fmt.Errorf("exec: aggregate alias %q not in plan output", q.Agg.Alias)
	}
	tbl := e.Cat.Table(q.TableOf(q.Agg.Alias))
	if tbl == nil {
		return 0, fmt.Errorf("exec: unknown table for aggregate alias %q", q.Agg.Alias)
	}
	col := tbl.Column(q.Agg.Column)
	if col == nil {
		return 0, fmt.Errorf("exec: unknown aggregate column %s.%s", q.Agg.Alias, q.Agg.Column)
	}
	st.WorkUnits += float64(rel.Len()) * cPred
	if rel.Len() == 0 {
		if q.Agg.Kind == query.AggMin || q.Agg.Kind == query.AggMax {
			return math.NaN(), nil
		}
		return 0, nil
	}
	sum := 0.0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, t := range rel.Tuples {
		v := col.Float(int(t[pos]))
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	switch q.Agg.Kind {
	case query.AggSum:
		return sum, nil
	case query.AggAvg:
		return sum / float64(rel.Len()), nil
	case query.AggMin:
		return lo, nil
	default: // AggMax
		return hi, nil
	}
}

func (e *Executor) eval(ctx context.Context, q *query.Query, n *plan.Node, st *CostStats) (*Relation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n.IsLeaf() {
		return e.evalScan(ctx, q, n, st)
	}
	left, err := e.eval(ctx, q, n.Left, st)
	if err != nil {
		return nil, err
	}
	right, err := e.eval(ctx, q, n.Right, st)
	if err != nil {
		return nil, err
	}
	out, err := e.evalJoin(ctx, q, n, left, right, st)
	if err != nil {
		return nil, err
	}
	n.TrueCard = float64(out.Len())
	return out, nil
}

func (e *Executor) evalScan(ctx context.Context, q *query.Query, n *plan.Node, st *CostStats) (*Relation, error) {
	tbl := e.Cat.Table(n.Table)
	if tbl == nil {
		return nil, fmt.Errorf("exec: unknown table %q", n.Table)
	}
	rel := newRelation([]string{n.Alias})
	st.WorkUnits += cStartup

	preds := n.Preds
	rows, nrows := []int32(nil), tbl.NumRows() // candidate rows; nil means all nrows
	switch n.Op {
	case plan.SeqScan:
		st.TuplesRead += int64(nrows)
		st.WorkUnits += float64(nrows) * (cRead + cPred*float64(len(preds)))
	case plan.IndexScan:
		eqIdx := -1
		var ix *data.Index
		for i, p := range preds {
			if p.Op == query.Eq {
				if cand := tbl.Index(p.Column); cand != nil {
					eqIdx, ix = i, cand
					break
				}
			}
		}
		if ix == nil {
			return nil, fmt.Errorf("exec: IndexScan on %s(%s) has no usable equality index", n.Table, n.Alias)
		}
		st.IndexLookups++
		rows = ix.Rows(preds[eqIdx].Val.I)
		nrows = len(rows)
		preds = append(append([]query.Pred(nil), preds[:eqIdx]...), preds[eqIdx+1:]...)
		st.TuplesRead += int64(nrows)
		st.WorkUnits += cIndexSeek + float64(nrows)*(cRead+cPred*float64(len(preds)))
	default:
		return nil, fmt.Errorf("exec: %s is not a scan operator", n.Op)
	}
	cols, err := bindPredCols(nil, tbl, preds)
	if err != nil {
		return nil, err
	}
	var ids []int32
	for i := 0; i < nrows; i++ {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		r := int32(i)
		if rows != nil {
			r = rows[i]
		}
		if matchesAll(cols, preds, int(r)) {
			ids = append(ids, r)
		}
	}
	rel.Tuples = carve(ids, 1)
	st.WorkUnits += float64(rel.Len()) * cOutput
	n.TrueCard = float64(rel.Len())
	return rel, nil
}

func (e *Executor) evalJoin(ctx context.Context, q *query.Query, n *plan.Node, left, right *Relation, st *CostStats) (*Relation, error) {
	st.WorkUnits += cStartup
	out := newRelation(append(append([]string{}, left.Aliases...), right.Aliases...))

	if len(n.Cond) == 0 {
		// Cross product: only nested loop supports it.
		if n.Op != plan.NestedLoopJoin {
			return nil, fmt.Errorf("exec: %s requires at least one equi-join condition", n.Op)
		}
		if productExceeds(left.Len(), right.Len(), e.maxRows()) {
			return nil, fmt.Errorf("exec: cross product of %d x %d exceeds intermediate cap", left.Len(), right.Len())
		}
		st.WorkUnits += float64(left.Len()) * float64(right.Len()) * cNLCompare
		var flat []int32
		for li, lt := range left.Tuples {
			if li%cancelCheckRows == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			for _, rt := range right.Tuples {
				flat = append(append(flat, lt...), rt...)
			}
		}
		out.Tuples = carve(flat, len(out.Aliases))
		st.TuplesJoined += int64(out.Len())
		st.WorkUnits += float64(out.Len()) * cOutput
		return out, nil
	}

	lks, err := keyColsFor(nil, e.Cat, q, left.Aliases, n.Cond, true)
	if err != nil {
		return nil, err
	}
	rks, err := keyColsFor(nil, e.Cat, q, right.Aliases, n.Cond, false)
	if err != nil {
		return nil, err
	}

	// Charge operator-specific work.
	nl, nr := float64(left.Len()), float64(right.Len())
	switch n.Op {
	case plan.HashJoin:
		st.WorkUnits += nr*cHashBuild + nl*cHashProbe
	case plan.MergeJoin:
		st.WorkUnits += cSortUnit * (nlogn(nl) + nlogn(nr))
	case plan.NestedLoopJoin:
		st.WorkUnits += nl * nr * cNLCompare
	default:
		return nil, fmt.Errorf("exec: %s is not a join operator", n.Op)
	}

	// Evaluate hash-based regardless of the charged algorithm: build on the
	// smaller side for memory, probe with the larger. Probe tuples come out
	// in order, each one's matches in ascending build index.
	build, probe := right, left
	bks, pks := rks, lks
	buildIsRight := true
	if left.Len() < right.Len() {
		build, probe = left, right
		bks, pks = lks, rks
		buildIsRight = false
	}
	ht := make(map[int64][]int32, build.Len())
	for bi, bt := range build.Tuples {
		if bi%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		k := bks[0].col.Ints[bt[bks[0].pos]]
		ht[k] = append(ht[k], int32(bi))
	}
	limit, width := e.maxRows(), len(out.Aliases)
	var flat []int32
	for i, pt := range probe.Tuples {
		if i%cancelCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for _, bi := range ht[pks[0].col.Ints[pt[pks[0].pos]]] {
			bt := build.Tuples[bi]
			if !tupleKeysEqual(pt, pks, bt, bks) {
				continue
			}
			if buildIsRight {
				flat = append(append(flat, pt...), bt...)
			} else {
				flat = append(append(flat, bt...), pt...)
			}
		}
		if len(flat)/width > limit {
			return nil, fmt.Errorf("exec: join output exceeds intermediate cap (%d)", limit)
		}
	}
	out.Tuples = carve(flat, width)
	st.TuplesJoined += int64(out.Len())
	st.WorkUnits += float64(out.Len()) * cOutput
	return out, nil
}

// tupleKeysEqual reports whether tuples lt and rt agree on every key
// column.
func tupleKeysEqual(lt []int32, lks []keyCol, rt []int32, rks []keyCol) bool {
	for i := range lks {
		if lks[i].col.Ints[lt[lks[i].pos]] != rks[i].col.Ints[rt[rks[i].pos]] {
			return false
		}
	}
	return true
}

// carve cuts flat into its tuples of width row ids each, full-capacity
// sub-slices of the one backing array.
func carve(flat []int32, width int) [][]int32 {
	out := make([][]int32, len(flat)/width)
	for i := range out {
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}
