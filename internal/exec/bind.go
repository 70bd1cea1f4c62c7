// Plan binding: the catalog resolution of a plan, split from the
// operators' per-run state. buildOperator hands every operator views of
// its node's entry; no Open looks a name up.
package exec

import (
	"fmt"
	"math"
	"slices"

	"lqo/internal/data"
	"lqo/internal/plan"
	"lqo/internal/query"
)

// A Binding is a plan resolved against one state of a catalog for queries
// of one shape (the same aliases and tables) and one aggregate: one entry
// per plan node in pre-order, and the aggregate's column. It depends only
// on the plan, the shape, the aggregate and the catalog's Generation, and
// is immutable once built, so concurrent runs of a cached plan share one.
// Row counts, column storage, zone maps and indexes are read per run:
// appended rows keep every object it holds. A generic leaf's predicates
// are bound per run too.
type Binding struct {
	gen    uint64
	aggFor query.Agg // the aggregate bound: the layout and agg follow it
	nodes  []nodeBinding
	// The arenas the nodes' spans index: the scans' predicate columns,
	// the equi-joins' key columns (left side's, then right side's) and
	// the joins' output sources.
	cols []*data.Column
	keys []keyCol
	srcs []colSrc
	// The aggregate's position in the root's output and its column, or
	// the error the run reports after a clean drain.
	agg    keyCol
	aggErr error
}

// span is a node's range of one of its Binding's arenas.
type span struct{ lo, hi uint16 }

// nodeBinding is one plan node's resolution. A scan emits its alias when
// emits is set; a join emits its sources.
type nodeBinding struct {
	tbl              *data.Table // scans
	cols, keys, srcs span
	emits, generic   bool // generic: the scan binds the run's query's predicates
}

func (nb *nodeBinding) width() int {
	if nb.emits {
		return 1
	}
	return int(nb.srcs.hi - nb.srcs.lo)
}

// view is arena's range s, capped so that no append can reach past it.
func view[T any](arena []T, s span) []T { return arena[s.lo:s.hi:s.hi] }

func spanOf(lo, hi int) span { return span{uint16(lo), uint16(hi)} }

// binder is a run set's Binding and what filling it takes besides: every
// node's output aliases, and what each equi-join asks its inputs for.
type binder struct {
	Binding
	names, needs []string
}

// Bind resolves p, planned for queries of q's shape, against cat (a Pin
// of the executor's catalog, or the catalog itself) for RunBound and
// queries with q's aggregate: a run set's binder fills, and an exact-size
// copy of its binding is kept.
func (e *Executor) Bind(cat *data.Catalog, q *query.Query, p *plan.Node) (*Binding, error) {
	set := e.pool.checkout()
	defer e.pool.checkin(set)
	bd := &set.bind
	defer bd.release()
	if err := bd.fill(cat, q, p); err != nil {
		return nil, err
	}
	return &Binding{gen: bd.gen, aggFor: bd.aggFor, nodes: slices.Clone(bd.nodes), cols: slices.Clone(bd.cols),
		keys: slices.Clone(bd.keys), srcs: slices.Clone(bd.srcs), agg: bd.agg, aggErr: bd.aggErr}, nil
}

// Current reports whether b holds for q against cat: it was resolved at
// cat's present generation for q's aggregate. False for a nil b.
func (b *Binding) Current(cat *data.Catalog, q *query.Query) bool {
	return b != nil && b.gen == cat.Generation() && b.aggFor == q.Agg
}

// fill resolves p into bd against one state of cat, reusing its storage:
// a warm run set's binder fills without allocating.
func (bd *binder) fill(cat *data.Catalog, q *query.Query, p *plan.Node) error {
	cat = cat.Pin()
	bd.gen, bd.aggFor, bd.agg, bd.aggErr = cat.Generation(), q.Agg, keyCol{}, nil
	bd.nodes, bd.cols, bd.keys, bd.srcs = bd.nodes[:0], bd.cols[:0], bd.keys[:0], bd.srcs[:0]
	bd.names, bd.needs = bd.names[:0], bd.needs[:0]
	var reads [1]string
	need := reads[:0] // the aggregate's alias, or nothing for COUNT(*)
	if q.Agg.Kind != query.AggCount {
		reads[0], need = q.Agg.Alias, reads[:]
	}
	out, err := bd.node(cat, q, p, need)
	if err == nil && max(len(bd.cols), len(bd.keys), len(bd.srcs)) > math.MaxUint16 {
		err = fmt.Errorf("exec: plan too large to bind")
	}
	if err != nil || len(need) == 0 {
		return err
	}
	if bd.agg.pos = slices.Index(out, q.Agg.Alias); bd.agg.pos < 0 {
		bd.aggErr = fmt.Errorf("exec: aggregate alias %q not in plan output", q.Agg.Alias)
	} else if tbl := cat.Table(q.TableOf(q.Agg.Alias)); tbl == nil {
		bd.aggErr = fmt.Errorf("exec: unknown table for aggregate alias %q", q.Agg.Alias)
	} else if bd.agg.col = tbl.Column(q.Agg.Column); bd.agg.col == nil {
		bd.aggErr = fmt.Errorf("exec: unknown aggregate column %s.%s", q.Agg.Alias, q.Agg.Column)
	}
	return nil
}

// node appends the entries of the subtree rooted at n, whose consumer
// reads the aliases in need, and returns the aliases n emits: a scan its
// own if need lists it, a join those of its inputs' that need lists. An
// equi-join asks its inputs for need plus its conditions' aliases, so
// intermediate rows carry just the key columns later joins probe with and
// the aggregate's column.
func (bd *binder) node(cat *data.Catalog, q *query.Query, n *plan.Node, need []string) (out []string, err error) {
	i, lo := len(bd.nodes), len(bd.names)
	bd.nodes = append(bd.nodes, nodeBinding{})
	if n.IsLeaf() {
		nb, cols := &bd.nodes[i], len(bd.cols)
		if nb.emits = slices.Contains(need, n.Alias); nb.emits {
			bd.names = append(bd.names, n.Alias)
		}
		if nb.tbl = cat.Table(n.Table); nb.tbl == nil {
			return nil, fmt.Errorf("exec: unknown table %q", n.Table)
		}
		if nb.generic = n.Generic(); !nb.generic {
			bd.cols, err = bindPredCols(bd.cols, nb.tbl, n.Preds)
		}
		nb.cols = spanOf(cols, len(bd.cols))
		return bd.names[lo:], err
	}
	childNeed := need
	if len(n.Cond) > 0 {
		k := len(bd.needs)
		bd.needs = joinNeed(bd.needs, need, n.Cond)
		childNeed = bd.needs[k:]
	}
	ls, err := bd.node(cat, q, n.Left, childNeed)
	if err != nil {
		return nil, err
	}
	rs, err := bd.node(cat, q, n.Right, childNeed)
	if err != nil {
		return nil, err
	}
	keys, srcs, mid := len(bd.keys), len(bd.srcs), len(bd.names)
	if len(n.Cond) > 0 {
		if bd.keys, err = keyColsFor(bd.keys, cat, q, ls, n.Cond, true); err != nil {
			return nil, err
		}
		if bd.keys, err = keyColsFor(bd.keys, cat, q, rs, n.Cond, false); err != nil {
			return nil, err
		}
	}
	// The inputs' aliases, ls then rs, end the names arena: n's replace
	// them.
	bd.names, bd.srcs = joinSchema(bd.names, bd.srcs, ls, rs, need)
	bd.names = append(bd.names[:lo], bd.names[mid:]...)
	bd.nodes[i].keys, bd.nodes[i].srcs = spanOf(keys, len(bd.keys)), spanOf(srcs, len(bd.srcs))
	return bd.names[lo:], nil
}

// release drops every reference bd holds into the catalog and the plan,
// keeping only slice capacity: a run set's binder between runs.
func (bd *binder) release() {
	clear(bd.nodes)
	clear(bd.cols)
	clear(bd.keys)
	clear(bd.names)
	clear(bd.needs)
	bd.aggFor, bd.agg, bd.aggErr = query.Agg{}, keyCol{}, nil
}
